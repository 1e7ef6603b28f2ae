package coher

import (
	"errors"
	"fmt"
)

// ErrPayloadOverflow reports that a directory entry's full-map
// representation no longer fits the 511-bit payload of a 64-byte line —
// the overflow regime the scale-frontier presets probe. The protocol's
// response is structural: entries that cannot fuse stay on the spill
// path, and home-memory segments switch to the compressed formats in
// compress.go.
var ErrPayloadOverflow = errors.New("coher: directory entry exceeds the 511-bit line payload")

// This file implements the bit-exact 64-byte line formats of the ZeroDEV
// proposal:
//
//   - Fig. 9:  spilled and fused entries under FusePrivateSpillShared.
//   - Fig. 11: spilled and fused entries under FuseAll (separate formats
//     for blocks in coherence state M/E and S).
//   - §III-D:  the home-memory block partitioned into per-socket segments
//     of N+1 bits each, plus the optional socket-level partition.
//
// The functional simulator keeps typed structs for speed; these encoders
// exist to demonstrate (and property-test) that the formats the protocol
// relies on actually fit, bit for bit, in a 64-byte block.

// Line is a raw 64-byte LLC line or memory block.
type Line [BlockBytes]byte

// bit helpers ---------------------------------------------------------------

func setBit(l *Line, pos int, v bool) {
	if v {
		l[pos>>3] |= 1 << (pos & 7)
	} else {
		l[pos>>3] &^= 1 << (pos & 7)
	}
}

func getBit(l *Line, pos int) bool {
	return l[pos>>3]&(1<<(pos&7)) != 0
}

func setBits(l *Line, pos, width int, v uint64) {
	for i := 0; i < width; i++ {
		setBit(l, pos+i, v&(1<<i) != 0)
	}
}

func getBits(l *Line, pos, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		if getBit(l, pos+i) {
			v |= 1 << i
		}
	}
	return v
}

// setCoreBits writes the low `cores` bits of sharer set s at pos,
// word-wise. For cores <= 128 the bit placement is identical to the old
// fixed lo/hi writes.
func setCoreBits(l *Line, pos int, s CoreSet, cores int) {
	for wi := 0; wi*64 < cores; wi++ {
		width := cores - wi*64
		if width > 64 {
			width = 64
		}
		setBits(l, pos+wi*64, width, s.Word(wi))
	}
}

// getCoreBits reads a `cores`-bit sharer vector at pos.
func getCoreBits(l *Line, pos, cores int) CoreSet {
	words := make([]uint64, (cores+63)/64)
	for wi := range words {
		width := cores - wi*64
		if width > 64 {
			width = 64
		}
		words[wi] = getBits(l, pos+wi*64, width)
	}
	var s CoreSet
	s.SetFromWords(words)
	return s
}

// Spilled format ------------------------------------------------------------

// Spilled-entry layout (both policies, Figs. 9a/11a): bit 0 is the
// fused/spilled selector (1 = spilled); the remaining 511 bits hold the
// directory entry. Our entry serialization inside those bits:
//
//	bits 1-2   directory state (0=I, 1=S, 2=M/E)
//	bit  3     busy
//	bits 8-15  owner core ID
//	bits 16-143 full-map sharer vector (128 bits)
const (
	spillStateOff   = 1
	spillBusyOff    = 3
	spillOwnerOff   = 8
	spillSharersOff = 16
)

// EncodeSpilled packs a directory entry into a spilled LLC line.
func EncodeSpilled(e Entry) Line {
	var l Line
	setBit(&l, 0, true) // spilled
	setBits(&l, spillStateOff, 2, uint64(e.State))
	setBit(&l, spillBusyOff, e.Busy)
	setBits(&l, spillOwnerOff, 8, uint64(e.Owner))
	lo, hi := e.Sharers.Words()
	setBits(&l, spillSharersOff, 64, lo)
	setBits(&l, spillSharersOff+64, 64, hi)
	return l
}

// DecodeSpilled unpacks a spilled LLC line. It returns an error when the
// line's selector bit marks it as fused.
func DecodeSpilled(l Line) (Entry, error) {
	if !getBit(&l, 0) {
		return Entry{}, fmt.Errorf("coher: line is fused, not spilled")
	}
	var e Entry
	e.State = DirState(getBits(&l, spillStateOff, 2))
	e.Busy = getBit(&l, spillBusyOff)
	e.Owner = CoreID(getBits(&l, spillOwnerOff, 8))
	lo := getBits(&l, spillSharersOff, 64)
	hi := getBits(&l, spillSharersOff+64, 64)
	e.Sharers.SetWords(lo, hi)
	return e, nil
}

// FPSS fused format (Fig. 9b) -------------------------------------------------

// FusedFPSS is the decoded content of an FPSS fused line: the LLC block's
// dirty bit, the directory busy bit, and the owner, with the rest of the
// line still holding the (partially corrupted) block data. FPSS only ever
// fuses entries for blocks in M/E state, so no sharer vector is needed.
type FusedFPSS struct {
	BlockDirty bool
	Busy       bool
	Owner      CoreID
}

// CorruptedBitsFPSS returns how many low bits of the block the FPSS fused
// format corrupts for an N-core socket: 3 + ceil(log2 N) (paper §III-C2).
func CorruptedBitsFPSS(cores int) int {
	return 3 + ceilLog2(cores)
}

// EncodeFusedFPSS overwrites the low bits of block with the FPSS fused
// header for an N-core socket and returns the result.
func EncodeFusedFPSS(block Line, f FusedFPSS, cores int) Line {
	setBit(&block, 0, false) // fused
	setBit(&block, 1, f.BlockDirty)
	setBit(&block, 2, f.Busy)
	setBits(&block, 3, ceilLog2(cores), uint64(f.Owner))
	return block
}

// DecodeFusedFPSS extracts the FPSS fused header. It returns an error when
// the selector bit marks the line as spilled.
func DecodeFusedFPSS(l Line, cores int) (FusedFPSS, error) {
	if getBit(&l, 0) {
		return FusedFPSS{}, fmt.Errorf("coher: line is spilled, not fused")
	}
	return FusedFPSS{
		BlockDirty: getBit(&l, 1),
		Busy:       getBit(&l, 2),
		Owner:      CoreID(getBits(&l, 3, ceilLog2(cores))),
	}, nil
}

// ReconstructFPSS restores a fused line to a plain data block given the
// low bits returned by the evicting E-state core or by the owner's busy
// clear message (3 + ceil(log2 N) bits).
func ReconstructFPSS(l Line, lowBits uint64, cores int) Line {
	setBits(&l, 0, CorruptedBitsFPSS(cores), lowBits)
	return l
}

// LowBitsFPSS extracts the bits a core must ship alongside a PutE notice
// or busy-clear message so the home LLC can reconstruct the fused block.
func LowBitsFPSS(original Line, cores int) uint64 {
	return getBits(&original, 0, CorruptedBitsFPSS(cores))
}

// FuseAll fused format (Fig. 11b/c) -------------------------------------------

// FusedFuseAll is the decoded content of a FuseAll fused line. Depending
// on the directory state it carries either the owner (M/E, Fig. 11b) or
// the full sharer vector (S, Fig. 11c).
type FusedFuseAll struct {
	BlockDirty bool
	Busy       bool
	State      DirState // DirOwned or DirShared
	Owner      CoreID
	Sharers    CoreSet
}

// Same reports field-wise equality (CoreSet makes the struct
// non-comparable with ==).
func (f FusedFuseAll) Same(o FusedFuseAll) bool {
	return f.BlockDirty == o.BlockDirty && f.Busy == o.Busy && f.State == o.State &&
		f.Owner == o.Owner && f.Sharers.Equal(o.Sharers)
}

// CorruptedBitsFuseAll returns how many low bits the FuseAll fused format
// corrupts: 4 + ceil(log2 N) for M/E lines, 4 + N for S lines
// (paper §III-C3).
func CorruptedBitsFuseAll(state DirState, cores int) int {
	if state == DirOwned {
		return 4 + ceilLog2(cores)
	}
	return 4 + cores
}

// FitsFusedFuseAll reports whether the FuseAll fused header for the
// given state still fits a 64-byte line. The S-state header carries the
// full N-bit sharer vector, so past 508 cores a shared entry cannot
// fuse and must stay spilled — the overflow regime the ROADMAP predicts
// dominates at the scale frontier. The engine's fuse decision consults
// this predicate.
func FitsFusedFuseAll(state DirState, cores int) bool {
	return CorruptedBitsFuseAll(state, cores) <= BlockBits
}

// EncodeFusedFuseAll overwrites the low bits of block with the FuseAll
// fused header and returns the result.
func EncodeFusedFuseAll(block Line, f FusedFuseAll, cores int) (Line, error) {
	if f.State != DirOwned && f.State != DirShared {
		return block, fmt.Errorf("coher: FuseAll fused line needs M/E or S state, got %v", f.State)
	}
	if !FitsFusedFuseAll(f.State, cores) {
		return block, fmt.Errorf("%w: FuseAll %v header for %d cores needs %d bits",
			ErrPayloadOverflow, f.State, cores, CorruptedBitsFuseAll(f.State, cores))
	}
	setBit(&block, 0, false) // fused
	setBit(&block, 1, f.BlockDirty)
	setBit(&block, 2, f.Busy)
	setBit(&block, 3, f.State == DirShared) // 0 = M/E, 1 = S
	if f.State == DirOwned {
		setBits(&block, 4, ceilLog2(cores), uint64(f.Owner))
	} else {
		setCoreBits(&block, 4, f.Sharers, cores)
	}
	return block, nil
}

// DecodeFusedFuseAll extracts the FuseAll fused header.
func DecodeFusedFuseAll(l Line, cores int) (FusedFuseAll, error) {
	if getBit(&l, 0) {
		return FusedFuseAll{}, fmt.Errorf("coher: line is spilled, not fused")
	}
	f := FusedFuseAll{
		BlockDirty: getBit(&l, 1),
		Busy:       getBit(&l, 2),
	}
	if getBit(&l, 3) {
		if !FitsFusedFuseAll(DirShared, cores) {
			return FusedFuseAll{}, fmt.Errorf("%w: FuseAll S header for %d cores needs %d bits",
				ErrPayloadOverflow, cores, CorruptedBitsFuseAll(DirShared, cores))
		}
		f.State = DirShared
		f.Sharers = getCoreBits(&l, 4, cores)
	} else {
		f.State = DirOwned
		f.Owner = CoreID(getBits(&l, 4, ceilLog2(cores)))
	}
	return f, nil
}

// Home-memory segment layout (§III-D) ----------------------------------------

// A corrupted home-memory block is partitioned into fixed per-socket
// segments of N+1 bits: one state bit (1 = M/E, 0 = S) followed by the
// N-bit holder vector (owner one-hot in M/E state, sharer vector in S).

// SegmentOffset returns the bit offset of socket s's segment for a socket
// with N cores.
func SegmentOffset(socket, cores int) int {
	return socket * StorageBits(cores)
}

// EncodeSegment writes entry e into socket s's segment of block l.
// The entry must be in a stable state; a socket never writes back a busy
// entry (the LLC holds it in a buffer until it stabilizes, paper Fig. 14).
func EncodeSegment(l Line, socket, cores int, e Entry) (Line, error) {
	if e.Busy {
		return l, fmt.Errorf("coher: cannot write back a busy directory entry")
	}
	if e.State != DirOwned && e.State != DirShared {
		return l, fmt.Errorf("coher: segment needs a live entry, got %v", e.State)
	}
	if socket >= MaxSocketsFullMap(cores) {
		return l, fmt.Errorf("coher: socket %d exceeds full-map capacity %d for %d cores",
			socket, MaxSocketsFullMap(cores), cores)
	}
	off := SegmentOffset(socket, cores)
	setBit(&l, off, e.State == DirOwned)
	var holders CoreSet
	if e.State == DirOwned {
		holders.Add(e.Owner)
	} else {
		holders = e.Sharers
	}
	setCoreBits(&l, off+1, holders, cores)
	return l, nil
}

// DecodeSegment reads socket s's segment back out of block l.
func DecodeSegment(l Line, socket, cores int) (Entry, error) {
	if socket >= MaxSocketsFullMap(cores) {
		return Entry{}, fmt.Errorf("coher: socket %d exceeds full-map capacity %d for %d cores",
			socket, MaxSocketsFullMap(cores), cores)
	}
	off := SegmentOffset(socket, cores)
	owned := getBit(&l, off)
	holders := getCoreBits(&l, off+1, cores)
	var e Entry
	if owned {
		if holders.Count() != 1 {
			return Entry{}, fmt.Errorf("coher: owned segment must have exactly one holder, got %d", holders.Count())
		}
		e.State = DirOwned
		e.Owner = holders.First()
	} else {
		if holders.Empty() {
			return Entry{State: DirInvalid}, nil
		}
		e.State = DirShared
		e.Sharers = holders
	}
	return e, nil
}
