// Package mem models home physical memory *metadata* for the ZeroDEV
// protocol. Block data values never matter to the simulation, so memory
// stores only what the protocol can observe: whether a block is
// corrupted (overwritten by evicted directory entries), the per-socket
// directory-entry segments housed in a corrupted block (paper Fig. 13),
// and — for the constant-overhead socket-directory scheme — the DirEvict
// bit and the socket-level entry partition (paper §III-D5).
package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/coher"
)

// ErrUnrepresentable is returned by New when no segment format — full
// map or compressed — can fit one directory entry per socket plus the
// socket-level partition into a 64-byte block for the requested shape.
var ErrUnrepresentable = errors.New("mem: home-memory segments cannot represent the system shape")

// Memory is the home-memory metadata store for one home node. Blocks not
// present in the map are ordinary, uncorrupted data blocks.
type Memory struct {
	sockets        int
	coresPerSocket int
	// budget is the per-segment holder bit budget when the full-map
	// format does not fit (wide sockets); 0 selects the exact full-map
	// segments of the classic shapes, whose behavior and fingerprints
	// must not change.
	budget int
	blocks map[coher.Addr]*BlockMeta
	// spare holds up to spareMetas cleared BlockMetas that gc dropped,
	// for meta to reuse: a block that leaves the map (a refilled
	// DirEvict partition, a restored block) is usually followed by one
	// that enters it, so the pair costs no allocation.
	spare []*BlockMeta

	highWater    int
	coarseWrites uint64
}

// BlockMeta is the protocol-visible state of one home memory block.
type BlockMeta struct {
	// Segments holds the evicted intra-socket directory entry per socket.
	// A segment with State DirInvalid is empty. The slice is allocated
	// lazily on the first segment write, so DirEvict-only blocks carry no
	// per-socket storage; use len-checked access when reading.
	Segments []coher.Entry
	// DataLost records that the memory copy of the block has been
	// overwritten by at least one directory-entry writeback and has not
	// yet been restored by a full-block writeback. A block can have
	// DataLost set with all segments empty: the entries were extracted
	// back on-chip, but the data is still only available from private
	// caches.
	DataLost bool
	// DirEvict records that the block's socket-level partition holds an
	// evicted socket-level directory entry (scheme 2 of §III-D5).
	DirEvict bool
	// SocketEntry is the content of the socket-level partition as a
	// coher.SocketEntry.Pack word, valid only when DirEvict is set.
	SocketEntry uint64
}

// seg reads one socket's segment without forcing allocation.
func (b *BlockMeta) seg(socket int) coher.Entry {
	if socket < len(b.Segments) {
		return b.Segments[socket]
	}
	return coher.Entry{}
}

// New constructs home-memory metadata for a system of the given shape.
// With full-map segments the paper's capacity bound applies: an
// M-socket system with N cores per socket must satisfy
// M <= ⌊510/(N+2)⌋ (the socket-level partition is always reserved).
// Wider shapes fall back to compressed segments (§III-D "a hybrid of
// limited-pointer and coarse-vector formats"): each socket gets a
// holder budget of ⌊510/M⌋−4 bits, entries that exceed it decode to an
// imprecise superset, and the shape is rejected with ErrUnrepresentable
// when the budget cannot hold even one core pointer.
func New(sockets, coresPerSocket int) (*Memory, error) {
	if sockets <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("mem: non-positive system shape")
	}
	m := &Memory{
		sockets:        sockets,
		coresPerSocket: coresPerSocket,
		blocks:         make(map[coher.Addr]*BlockMeta),
	}
	if sockets <= coher.MaxSocketsWithSocketPartition(coresPerSocket) {
		return m, nil // exact full-map segments, classic behavior
	}
	budget := (coher.BlockBits-2)/sockets - 4
	if budget < ptrBits(coresPerSocket) || coher.MaxSocketsCompressed(budget) < sockets {
		return nil, fmt.Errorf("%w: %d sockets × %d cores/socket leaves a %d-bit holder budget (one pointer needs %d bits)",
			ErrUnrepresentable, sockets, coresPerSocket, budget, ptrBits(coresPerSocket))
	}
	m.budget = budget
	return m, nil
}

// ptrBits is the width of one core pointer for an N-core socket.
func ptrBits(cores int) int {
	b := 0
	for 1<<b < cores {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// MustNew is New that panics on error.
func MustNew(sockets, coresPerSocket int) *Memory {
	m, err := New(sockets, coresPerSocket)
	if err != nil {
		panic(err)
	}
	return m
}

// SegmentBudget reports the per-socket holder bit budget, 0 when the
// exact full-map format is in use.
func (m *Memory) SegmentBudget() int { return m.budget }

// spareMetas bounds the cleared BlockMetas a Memory keeps for reuse.
const spareMetas = 16

func (m *Memory) meta(addr coher.Addr) *BlockMeta {
	b := m.blocks[addr]
	if b == nil {
		if n := len(m.spare); n > 0 {
			b, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			b = &BlockMeta{}
		}
		m.blocks[addr] = b
		if len(m.blocks) > m.highWater {
			m.highWater = len(m.blocks)
		}
	}
	return b
}

// Corrupted reports whether the block's memory copy is invalid because
// it was overwritten by a directory-entry writeback and has not been
// restored by a full-block writeback since.
func (m *Memory) Corrupted(addr coher.Addr) bool {
	b := m.blocks[addr]
	return b != nil && b.DataLost
}

// CorruptedSockets returns the set of sockets with a live segment in the
// block.
func (m *Memory) CorruptedSockets(addr coher.Addr) coher.SocketSet {
	var v coher.SocketSet
	b := m.blocks[addr]
	if b == nil {
		return v
	}
	for s, e := range b.Segments {
		if e.Live() {
			v.Add(s)
		}
	}
	return v
}

// WriteSegment stores the evicted directory entry of the given socket in
// the block (the WB_DE flow). The entry must be live and stable. Wide
// sockets store a sharer set through the compressed hybrid format: small
// sets stay precise, larger sets coarsen to a superset marked Imprecise
// that readers reconcile against actual core state. An owned entry has
// one holder, which always fits the limited-pointer format (New checked
// that the budget holds a pointer), so it is stored as it is.
func (m *Memory) WriteSegment(addr coher.Addr, socket int, e coher.Entry) error {
	if !e.Live() {
		return fmt.Errorf("mem: writing a dead directory entry to %#x", uint64(addr))
	}
	if e.Busy {
		return fmt.Errorf("mem: writing a busy directory entry to %#x", uint64(addr))
	}
	if socket < 0 || socket >= m.sockets {
		return fmt.Errorf("mem: socket %d out of range", socket)
	}
	if m.budget > 0 && e.State == coher.DirShared {
		c, err := coher.Compress(e, m.coresPerSocket, m.budget)
		if err != nil {
			return fmt.Errorf("mem: segment for %#x: %w", uint64(addr), err)
		}
		if !c.Precise() {
			e.Sharers = c.Holders()
			e.Imprecise = true
			m.coarseWrites++
		}
	}
	b := m.meta(addr)
	if b.Segments == nil {
		b.Segments = make([]coher.Entry, m.sockets)
	}
	b.Segments[socket] = e
	b.DataLost = true
	return nil
}

// ReadSegment retrieves (without clearing) the directory entry a socket
// previously wrote back. ok is false when the segment is empty.
func (m *Memory) ReadSegment(addr coher.Addr, socket int) (coher.Entry, bool) {
	b := m.blocks[addr]
	if b == nil {
		return coher.Entry{}, false
	}
	e := b.seg(socket)
	return e, e.Live()
}

// ClearSegment frees a socket's segment (entry consumed or block holder
// set went empty).
func (m *Memory) ClearSegment(addr coher.Addr, socket int) {
	if b := m.blocks[addr]; b != nil {
		if socket < len(b.Segments) {
			b.Segments[socket] = coher.Entry{}
		}
		m.gc(addr, b)
	}
}

// Restore overwrites the block with clean data, clearing all segments
// and the data-lost flag (a full-block writeback reached memory, e.g.
// the system-wide last copy retrieved per §III-D4 or an ordinary PutM
// that flowed through to DRAM).
func (m *Memory) Restore(addr coher.Addr) {
	if b := m.blocks[addr]; b != nil {
		b.Segments = nil
		b.DataLost = false
		m.gc(addr, b)
	}
}

// SetDirEvict stores an evicted socket-level directory entry in the
// block's socket partition and sets the DirEvict bit.
func (m *Memory) SetDirEvict(addr coher.Addr, e coher.SocketEntry) {
	b := m.meta(addr)
	b.DirEvict = true
	b.SocketEntry = e.Pack()
}

// DirEvict reads the DirEvict bit and, when set, the stored socket-level
// entry.
func (m *Memory) DirEvict(addr coher.Addr) (coher.SocketEntry, bool) {
	b := m.blocks[addr]
	if b == nil || !b.DirEvict {
		return coher.SocketEntry{}, false
	}
	return coher.UnpackSocketEntry(b.SocketEntry), true
}

// ClearDirEvict clears the DirEvict bit.
func (m *Memory) ClearDirEvict(addr coher.Addr) {
	if b := m.blocks[addr]; b != nil {
		b.DirEvict = false
		b.SocketEntry = 0
		m.gc(addr, b)
	}
}

// gc drops metadata for blocks that have returned to the ordinary state,
// keeping the map proportional to the corrupted population (which the
// paper measures as tiny).
func (m *Memory) gc(addr coher.Addr, b *BlockMeta) {
	if b.DirEvict || b.DataLost {
		return
	}
	for _, s := range b.Segments {
		if s.Live() {
			return
		}
	}
	delete(m.blocks, addr)
	if len(m.spare) < spareMetas {
		*b = BlockMeta{}
		m.spare = append(m.spare, b)
	}
}

// CorruptedCount returns the number of blocks currently corrupted, used
// by instrumentation.
func (m *Memory) CorruptedCount() int {
	n := 0
	for addr := range m.blocks {
		if m.Corrupted(addr) {
			n++
		}
	}
	return n
}

// MetaLive returns the number of blocks currently carrying metadata
// (corrupted or DirEvict).
func (m *Memory) MetaLive() int { return len(m.blocks) }

// MetaHighWater returns the largest metadata population ever reached —
// the ceiling the retire-on-last-copy gc keeps bounded, asserted by the
// scale-frontier memory audits.
func (m *Memory) MetaHighWater() int { return m.highWater }

// CoarseSegmentWrites returns how many segment writebacks lost precision
// to the coarse-vector format (always 0 at full-map shapes).
func (m *Memory) CoarseSegmentWrites() uint64 { return m.coarseWrites }

// ForEachCorrupted visits every corrupted block, for invariant checks.
func (m *Memory) ForEachCorrupted(fn func(addr coher.Addr, b *BlockMeta)) {
	for addr, b := range m.blocks {
		if b.DataLost {
			fn(addr, b)
		}
	}
}

// ForEachDirEvict visits every block whose socket-level partition holds
// an evicted socket-level entry, for invariant checks.
func (m *Memory) ForEachDirEvict(fn func(addr coher.Addr, e coher.SocketEntry)) {
	for addr, b := range m.blocks {
		if b.DirEvict {
			fn(addr, coher.UnpackSocketEntry(b.SocketEntry))
		}
	}
}

// AppendState appends the home-memory metadata's protocol-visible state
// to buf for model-checker fingerprinting: corrupted/dir-evict blocks
// in ascending address order, each with its data-lost flag, per-socket
// segments (canonical entry form), and socket partition. Blocks absent
// from the map are ordinary and contribute no bytes — gc keeps the map
// canonical in that respect. Lazily absent Segments slices fingerprint
// exactly like all-dead segments.
func (m *Memory) AppendState(buf []byte) []byte {
	addrs := make([]coher.Addr, 0, len(m.blocks))
	for a := range m.blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		b := m.blocks[a]
		buf = append(buf,
			byte(a), byte(a>>8), byte(a>>16), byte(a>>24),
			byte(a>>32), byte(a>>40), byte(a>>48), byte(a>>56))
		var flags byte
		if b.DataLost {
			flags |= 1
		}
		if b.DirEvict {
			flags |= 2
		}
		buf = append(buf, flags)
		for s := 0; s < m.sockets; s++ {
			seg := b.seg(s)
			buf = seg.AppendCanonical(buf)
		}
		if b.DirEvict {
			e := coher.UnpackSocketEntry(b.SocketEntry)
			buf = append(buf, byte(e.State), byte(e.Owner))
			s := uint64(e.Sharers)
			buf = append(buf,
				byte(s), byte(s>>8), byte(s>>16), byte(s>>24),
				byte(s>>32), byte(s>>40), byte(s>>48), byte(s>>56))
		}
	}
	return buf
}
