// Package llc implements the banked shared last-level cache with the
// ZeroDEV extensions: lines can hold ordinary data, a spilled directory
// entry (state V=0,D=1 with the selector bit set), or a fused directory
// entry sharing the line with the block's own data (paper §III-C). It
// supports the three fill disciplines the paper evaluates —
// non-inclusive (baseline), exclusive-private-data (EPD), and inclusive
// — and the two extended replacement policies spLRU and dataLRU
// (§III-D1).
package llc

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coher"
)

// Mode is the LLC fill discipline.
type Mode uint8

const (
	// NonInclusive: demand fills from memory allocate in the LLC; LLC
	// evictions do not invalidate core caches (baseline, §III-A).
	NonInclusive Mode = iota
	// EPD: exclusive private data. Blocks in M/E live only in private
	// caches; the LLC allocates on owner eviction or on sharing and
	// deallocates on transition to M/E (§III-E).
	EPD
	// Inclusive: LLC evictions force invalidation of private copies
	// (§III-F).
	Inclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NonInclusive:
		return "non-inclusive"
	case EPD:
		return "EPD"
	case Inclusive:
		return "inclusive"
	}
	return "Mode(?)"
}

// Repl is the LLC replacement policy.
type Repl uint8

const (
	// LRU is the baseline policy.
	LRU Repl = iota
	// SpLRU is LRU with the spill-protect touch rule: on an access to
	// block B, B is touched first and its spilled entry second, so the
	// data block always leaves before its spilled entry.
	SpLRU
	// DataLRU victimizes ordinary data blocks (V=1) before any spilled
	// or fused entry in the set.
	DataLRU
)

// String implements fmt.Stringer.
func (r Repl) String() string {
	switch r {
	case LRU:
		return "LRU"
	case SpLRU:
		return "spLRU"
	case DataLRU:
		return "dataLRU"
	}
	return "Repl(?)"
}

// LineKind classifies a valid LLC line.
type LineKind uint8

const (
	// KindData is an ordinary code/data block (V=1).
	KindData LineKind = iota
	// KindSpilled is a spilled directory entry occupying a full line
	// (V=0, D=1, selector=spilled).
	KindSpilled
	// KindFused is a block whose low bits have been overwritten by its
	// own directory entry (V=0, D=1, selector=fused).
	KindFused
)

// String implements fmt.Stringer.
func (k LineKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindSpilled:
		return "spilledDE"
	case KindFused:
		return "fusedDE"
	}
	return "LineKind(?)"
}

// Payload is the per-line header. It holds no pointers and fits in eight
// bytes, so the line arrays stay small and the garbage collector never
// scans them. A spilled or fused line holds a bare owned entry (see
// inline) in the header itself and any other entry out of line in the
// LLC's entry slab; read and write it with Entry and SetEntry.
type Payload struct {
	Kind LineKind
	// Dirty is the block-dirty bit: for KindData the usual dirty bit, for
	// KindFused the dirty bit of the (partially corrupted) block part.
	Dirty bool
	// owner is the owner of an entry held in the header (slot 0).
	owner coher.CoreID
	// slot names the entry-slab slot of a KindSpilled or KindFused line
	// whose entry lives out of line; it is 0 on a KindData line and on a
	// line holding its entry in the header.
	slot uint32
}

// inline reports whether e is a bare owned entry, which a line header
// holds without a slab slot: an M/E owner pointer with no sharer bits
// and neither flag set. That is the FPSS fused entry of §III-C2, and
// most housed entries are of this shape (DESIGN §8).
func inline(e *coher.Entry) bool {
	return e.State == coher.DirOwned && e.Sharers.Empty() && !e.Busy && !e.Imprecise
}

// slabChunk is the entry count of one slab chunk. Chunks never move, so
// the slab grows one chunk at a time instead of copying every live entry.
const slabChunk = 1024

// entrySlab stores the directory entries of the spilled and fused lines
// that a header cannot hold. Freed slots are reused last-in first-out
// before a new slot is taken, so the slab's size follows the peak count
// of out-of-line entries. Slots are numbered from 1, so slot 0 is free to
// mean "no slot".
type entrySlab struct {
	chunks []*[slabChunk]coher.Entry
	free   []uint32
	next   uint32 // slots 1..next have been handed out at least once
	live   int
}

func (s *entrySlab) at(slot uint32) *coher.Entry {
	i := slot - 1
	return &s.chunks[i/slabChunk][i%slabChunk]
}

// alloc stores e in a free slot and returns the slot.
func (s *entrySlab) alloc(e *coher.Entry) uint32 {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if int(s.next) == len(s.chunks)*slabChunk {
			s.chunks = append(s.chunks, new([slabChunk]coher.Entry))
		}
		s.next++
		slot = s.next
	}
	*s.at(slot) = *e
	s.live++
	return slot
}

// release frees slot. The slot is zeroed so a wide entry's CoreSet
// extension can be garbage-collected.
func (s *entrySlab) release(slot uint32) {
	*s.at(slot) = coher.Entry{}
	s.free = append(s.free, slot)
	s.live--
}

// View locates the lines related to a block address within its set:
// DataWay is the line holding the block's data (a fused line counts),
// DEWay the line holding its directory entry. For a fused line both
// point at the same way.
type View struct {
	Bank, Set      int
	DataWay, DEWay int
	Fused          bool
}

// HasData reports whether the block's data is present (including as the
// corrupted part of a fused line).
func (v View) HasData() bool { return v.DataWay >= 0 }

// HasDE reports whether a housed directory entry is present.
func (v View) HasDE() bool { return v.DEWay >= 0 }

// Evicted describes a line displaced by an allocation or removed by
// Evict; the protocol engine converts it into a writeback (dirty data)
// or a WB_DE flow (spilled/fused entries).
type Evicted struct {
	Addr  coher.Addr
	Kind  LineKind
	Dirty bool
	Entry coher.Entry
}

// LLC is the banked shared cache. Not safe for concurrent use.
type LLC struct {
	banks int
	arrs  []*cache.Array[Payload]
	mode  Mode
	repl  Repl

	// bankShift is log2(banks): bank counts, like set counts, are powers
	// of two, so the bank interleave is a mask and a shift.
	bankShift uint8

	// The protection pin fixes the lines of one block address for the
	// duration of a protocol transaction, mirroring the MSHR line lock
	// real hardware holds while a grant is in flight: replacement never
	// victimizes a protected line, so a transaction cannot evict the
	// block (or the directory entry) it is itself operating on. The
	// bank/set/tag are precomputed at Protect time so victim selection
	// can tell loop-invariantly whether a set is pinned at all — almost
	// every allocation lands in an unpinned set and takes the unfiltered
	// fast path.
	hasProtected      bool
	protBank, protSet int
	protTag           uint64

	// slab holds the out-of-line entries of the resident spilled and
	// fused lines of all banks.
	slab entrySlab
	// deLines is the census of resident spilled and fused lines. While
	// it is zero — always, for the baseline, and during warmup for
	// ZeroDEV — a block occupies at most one way and that way is a plain
	// data line, so Probe takes a first-match scan with no kind
	// classification.
	deLines int
}

// New constructs an LLC with the given total capacity split over banks.
func New(capacityBytes, ways, banks int, mode Mode, repl Repl) (*LLC, error) {
	if err := checkBanks(banks); err != nil {
		return nil, err
	}
	if capacityBytes%banks != 0 {
		return nil, fmt.Errorf("llc: capacity %d not divisible by %d banks", capacityBytes, banks)
	}
	geo, err := cache.GeometryFor(capacityBytes/banks, ways, coher.BlockBytes)
	if err != nil {
		return nil, fmt.Errorf("llc: %w", err)
	}
	l := newLLC(banks, mode, repl)
	for i := 0; i < banks; i++ {
		l.arrs = append(l.arrs, cache.New[Payload](geo, cache.LRU))
	}
	return l, nil
}

// checkBanks refuses a bank count that is not a positive power of two.
func checkBanks(banks int) error {
	if banks <= 0 || banks&(banks-1) != 0 {
		return fmt.Errorf("llc: bank count %d not a power of two", banks)
	}
	return nil
}

func newLLC(banks int, mode Mode, repl Repl) *LLC {
	return &LLC{banks: banks, mode: mode, repl: repl, bankShift: uint8(bits.TrailingZeros64(uint64(banks)))}
}

// NewGeometry constructs an LLC directly from per-bank sets and ways,
// used by the reduced-associativity study (Fig. 6) where ways are taken
// away from a fixed set count, so the capacity is no longer a power of
// two.
func NewGeometry(setsPerBank, ways, banks int, mode Mode, repl Repl) (*LLC, error) {
	if setsPerBank <= 0 || setsPerBank&(setsPerBank-1) != 0 {
		return nil, fmt.Errorf("llc: set count %d not a power of two", setsPerBank)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("llc: non-positive geometry")
	}
	if err := checkBanks(banks); err != nil {
		return nil, err
	}
	l := newLLC(banks, mode, repl)
	for i := 0; i < banks; i++ {
		l.arrs = append(l.arrs, cache.New[Payload](cache.Geometry{Sets: setsPerBank, Ways: ways}, cache.LRU))
	}
	return l, nil
}

// MustNew panics on construction error.
func MustNew(capacityBytes, ways, banks int, mode Mode, repl Repl) *LLC {
	l, err := New(capacityBytes, ways, banks, mode, repl)
	if err != nil {
		panic(err)
	}
	return l
}

// Mode returns the fill discipline.
func (l *LLC) Mode() Mode { return l.mode }

// Banks returns the bank count.
func (l *LLC) Banks() int { return l.banks }

// Ways returns the associativity.
func (l *LLC) Ways() int { return l.arrs[0].Geometry().Ways }

// Blocks returns the total line count.
func (l *LLC) Blocks() int { return l.banks * l.arrs[0].Geometry().Blocks() }

// BankOf maps a block address to its home bank.
func (l *LLC) BankOf(addr coher.Addr) int {
	return int(uint64(addr) & (uint64(l.banks) - 1))
}

func (l *LLC) local(addr coher.Addr) uint64 {
	return uint64(addr) >> l.bankShift
}

func (l *LLC) global(bank int, localAddr uint64) coher.Addr {
	return coher.Addr(localAddr*uint64(l.banks) + uint64(bank))
}

// Probe locates the lines related to addr. It performs no replacement
// updates. A block occupies at most two ways of its set (data line plus
// spilled entry), so the tag scan stops at the second match.
func (l *LLC) Probe(addr coher.Addr) View {
	bank := l.BankOf(addr)
	arr := l.arrs[bank]
	local := l.local(addr)
	set := arr.SetIndex(local)
	v := View{Bank: bank, Set: set, DataWay: -1, DEWay: -1}
	if l.deLines == 0 {
		v.DataWay = arr.FindWay(set, arr.Tag(local))
		return v
	}
	w0, w1 := arr.FindWays2(set, arr.Tag(local))
	for _, w := range [2]int{w0, w1} {
		if w < 0 {
			continue
		}
		switch arr.Payload(set, w).Kind {
		case KindData:
			v.DataWay = w
		case KindSpilled:
			v.DEWay = w
		case KindFused:
			v.DataWay, v.DEWay, v.Fused = w, w, true
		}
	}
	return v
}

// Payload returns the payload at a way of the view's set for in-place
// mutation.
func (l *LLC) Payload(v View, way int) *Payload {
	return l.arrs[v.Bank].Payload(v.Set, way)
}

// Entry returns the directory entry housed at v.DEWay, which must
// locate a spilled or fused line, as every view from Probe does. It is
// entryOf with the data-line check folded into the header branch, which
// measured faster than calling a checked helper: a data line's slot 0
// names no slab slot and traps on the chunk index instead of reading as
// a header entry.
func (l *LLC) Entry(v View) coher.Entry {
	p := l.arrs[v.Bank].Payload(v.Set, v.DEWay)
	if p.slot == 0 && p.Kind != KindData {
		return coher.Entry{State: coher.DirOwned, Owner: p.owner}
	}
	return *l.slab.at(p.slot)
}

// SetEntry rewrites the directory entry housed at v.DEWay, which must
// locate a spilled or fused line.
func (l *LLC) SetEntry(v View, e coher.Entry) {
	p := l.arrs[v.Bank].Payload(v.Set, v.DEWay)
	if p.Kind == KindData {
		panic("llc: SetEntry on a data line")
	}
	l.store(p, &e)
}

// entryOf returns the entry of the spilled or fused header p.
func (l *LLC) entryOf(p *Payload) coher.Entry {
	if p.slot == 0 {
		return coher.Entry{State: coher.DirOwned, Owner: p.owner}
	}
	return *l.slab.at(p.slot)
}

// store writes e into the spilled or fused header p, moving the entry
// between the header and the slab when its shape changes: a bare owned
// entry gives up its slot, any other entry takes one if it has none.
func (l *LLC) store(p *Payload, e *coher.Entry) {
	switch {
	case inline(e):
		if p.slot != 0 {
			l.slab.release(p.slot)
			p.slot = 0
		}
		p.owner = e.Owner
	case p.slot == 0:
		p.owner, p.slot = 0, l.slab.alloc(e)
	default:
		*l.slab.at(p.slot) = *e
	}
}

// take removes and returns the entry of the spilled or fused header p,
// whose line is leaving the DE-line census, freeing its slot if it has
// one.
func (l *LLC) take(p *Payload) coher.Entry {
	e := l.entryOf(p)
	if p.slot != 0 {
		l.slab.release(p.slot)
	}
	p.owner, p.slot = 0, 0
	l.deLines--
	return e
}

// Touch applies the access-time replacement update for addr. Under
// spLRU and dataLRU the block is touched first and its spilled entry
// second, so the entry always ends more recently used than its block
// and the block leaves first (§III-D1). Plain LRU models the unordered
// baseline: the directory-entry update lands before the data response,
// leaving the spilled entry *older* than its block and exposed to
// eviction while the block lives on.
func (l *LLC) Touch(v View) {
	arr := l.arrs[v.Bank]
	deFirst := l.repl == LRU
	if deFirst && v.DEWay >= 0 && v.DEWay != v.DataWay {
		arr.Touch(v.Set, v.DEWay)
	}
	if v.DataWay >= 0 {
		arr.Touch(v.Set, v.DataWay)
	}
	if !deFirst && v.DEWay >= 0 && v.DEWay != v.DataWay {
		arr.Touch(v.Set, v.DEWay)
	}
}

// Protect pins addr's lines against replacement until Unprotect; used
// by the protocol engine around each transaction.
func (l *LLC) Protect(addr coher.Addr) {
	l.hasProtected = true
	l.protBank = l.BankOf(addr)
	arr := l.arrs[l.protBank]
	local := l.local(addr)
	l.protSet = arr.SetIndex(local)
	l.protTag = arr.Tag(local)
}

// Unprotect releases the transaction pin.
func (l *LLC) Unprotect() { l.hasProtected = false }

// isData filters victim selection to ordinary data lines (the dataLRU
// first pass). Package-level so the hot path passes a plain function,
// not a fresh closure.
func isData(_ int, p *Payload) bool { return p.Kind == KindData }

// victimWay picks a way to reuse in (bank, set) honoring the policy and
// the transaction pin. evicted reports whether a line was displaced; ev
// describes it, and a displaced directory entry's slab slot, if it has
// one, is freed.
// Returning the eviction by value keeps the per-fill path free of heap
// allocation (this call used to account for three quarters of all
// allocations in a run).
func (l *LLC) victimWay(bank, set int) (way int, ev Evicted, evicted bool) {
	arr := l.arrs[bank]
	if w, free := arr.FreeWay(set); free {
		return w, Evicted{}, false
	}
	var w int
	ok := true
	// The pin names exactly one (bank, set): any other set selects its
	// victim with no eligibility filtering at all.
	pinned := l.hasProtected && bank == l.protBank && set == l.protSet
	switch {
	case l.repl == DataLRU && !pinned:
		if w, ok = arr.VictimWhere(set, isData); !ok {
			w, ok = arr.Victim(set), true
		}
	case l.repl == DataLRU:
		w, ok = arr.VictimWhere(set, func(way int, p *Payload) bool {
			return p.Kind == KindData && arr.TagAt(set, way) != l.protTag
		})
		if !ok {
			w, ok = arr.VictimWhere(set, func(way int, _ *Payload) bool { return arr.TagAt(set, way) != l.protTag })
		}
	case !pinned: // LRU and SpLRU share the victim rule; SpLRU differs in Touch order.
		w = arr.Victim(set)
	default:
		w, ok = arr.VictimWhere(set, func(way int, _ *Payload) bool { return arr.TagAt(set, way) != l.protTag })
	}
	if !ok {
		panic("llc: no evictable way (associativity too low for line protection)")
	}
	p := arr.Payload(set, w)
	ev = Evicted{
		Addr:  l.global(bank, arr.AddrOf(set, w)),
		Kind:  p.Kind,
		Dirty: p.Dirty,
	}
	if p.Kind != KindData {
		ev.Entry = l.take(p)
	}
	return w, ev, true
}

// InsertData allocates a data line for addr (which must not already have
// one). evicted reports whether ev describes a displaced line.
func (l *LLC) InsertData(addr coher.Addr, dirty bool) (ev Evicted, evicted bool) {
	bank := l.BankOf(addr)
	arr := l.arrs[bank]
	local := l.local(addr)
	set := arr.SetIndex(local)
	way, ev, evicted := l.victimWay(bank, set)
	arr.Insert(set, way, local, Payload{Kind: KindData, Dirty: dirty})
	return ev, evicted
}

// InsertSpilled allocates a spilled-entry line for addr. The caller must
// ensure no DE line already exists for addr. evicted reports whether ev
// describes a displaced line.
func (l *LLC) InsertSpilled(addr coher.Addr, e coher.Entry) (ev Evicted, evicted bool) {
	bank := l.BankOf(addr)
	arr := l.arrs[bank]
	local := l.local(addr)
	set := arr.SetIndex(local)
	way, ev, evicted := l.victimWay(bank, set)
	p := Payload{Kind: KindSpilled}
	l.store(&p, &e)
	arr.Insert(set, way, local, p)
	l.deLines++
	return ev, evicted
}

// Fuse converts the data line of v into a fused line carrying e. The
// block-dirty bit is preserved in the fused header.
func (l *LLC) Fuse(v View, e coher.Entry) {
	p := l.Payload(v, v.DataWay)
	if p.Kind != KindData {
		panic("llc: Fuse on non-data line")
	}
	p.Kind = KindFused
	l.store(p, &e)
	l.deLines++
	l.arrs[v.Bank].Touch(v.Set, v.DataWay)
}

// Unfuse restores a fused line to a plain data line (the directory entry
// has been freed and the low bits reconstructed, or it is being moved to
// a spilled line).
func (l *LLC) Unfuse(v View) {
	p := l.Payload(v, v.DataWay)
	if p.Kind != KindFused {
		panic("llc: Unfuse on non-fused line")
	}
	l.take(p)
	p.Kind = KindData
}

// DropDE removes the housed directory entry of v: a spilled line is
// invalidated, a fused line reverts to a data line.
func (l *LLC) DropDE(v View) {
	if !v.HasDE() {
		panic("llc: DropDE without a DE")
	}
	if v.Fused {
		l.Unfuse(v)
		return
	}
	l.take(l.Payload(v, v.DEWay))
	l.arrs[v.Bank].Invalidate(v.Set, v.DEWay)
}

// Evict removes the line at way of v's set as replacement would and
// describes it: a spilled line leaves alone, a fused line with its
// block part, a data line alone. Dirty is the line's own dirty bit,
// always clear on a spilled line. A removed entry's slab slot, if it
// has one, is freed.
func (l *LLC) Evict(v View, way int) Evicted {
	arr := l.arrs[v.Bank]
	p := arr.Payload(v.Set, way)
	ev := Evicted{Addr: l.global(v.Bank, arr.AddrOf(v.Set, way)), Kind: p.Kind, Dirty: p.Dirty}
	if p.Kind != KindData {
		ev.Entry = l.take(p)
	}
	arr.Invalidate(v.Set, way)
	return ev
}

// InvalidateData removes the data line of v (EPD deallocation on
// transition to M/E, or inclusive-mode back-invalidation). The line must
// not be fused; callers handle fused lines through DE operations first.
func (l *LLC) InvalidateData(v View) {
	p := l.Payload(v, v.DataWay)
	if p.Kind != KindData {
		panic("llc: InvalidateData on non-data line")
	}
	l.arrs[v.Bank].Invalidate(v.Set, v.DataWay)
}

// CountKinds returns the current line population by kind, which the
// occupancy studies (Fig. 5 methodology) report as a fraction of LLC
// blocks.
func (l *LLC) CountKinds() (data, spilled, fused int) {
	for _, arr := range l.arrs {
		arr.ForEachValid(func(_, _ int, _ uint64, p *Payload) {
			switch p.Kind {
			case KindData:
				data++
			case KindSpilled:
				spilled++
			case KindFused:
				fused++
			}
		})
	}
	return
}

// ForEachDE visits every housed directory entry, for invariant checks.
func (l *LLC) ForEachDE(fn func(addr coher.Addr, fused bool, e coher.Entry)) {
	for b, arr := range l.arrs {
		arr.ForEachValid(func(_, _ int, local uint64, p *Payload) {
			if p.Kind == KindSpilled || p.Kind == KindFused {
				fn(l.global(b, local), p.Kind == KindFused, l.entryOf(p))
			}
		})
	}
}

// ForEachData visits every plain data line (fused lines are reported by
// ForEachDE), for fault-injection target collection.
func (l *LLC) ForEachData(fn func(addr coher.Addr, dirty bool)) {
	for b, arr := range l.arrs {
		arr.ForEachValid(func(_, _ int, local uint64, p *Payload) {
			if p.Kind == KindData {
				fn(l.global(b, local), p.Dirty)
			}
		})
	}
}

// AppendState appends the LLC's protocol-visible state to buf for
// model-checker fingerprinting: per bank, the array contents (tags,
// recency ranks, line kind/dirty bit, and the canonical form of any
// housed directory entry). The transient Protect pin is excluded — it
// is always clear between top-level requests, the only points the
// checker fingerprints.
func (l *LLC) AppendState(buf []byte) []byte {
	for _, arr := range l.arrs {
		buf = arr.AppendState(buf, func(b []byte, p *Payload) []byte {
			tag := byte(p.Kind)
			if p.Dirty {
				tag |= 0x10
			}
			b = append(b, tag)
			if p.Kind == KindSpilled || p.Kind == KindFused {
				b = l.entryOf(p).AppendCanonical(b)
			}
			return b
		})
	}
	return buf
}
