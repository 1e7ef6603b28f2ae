// Package socket implements the multi-socket system of the paper's
// §III-D: per-socket CMPs (each a core.Engine with its own sparse
// directory, LLC, and mesh) glued by a home-based MESI socket-level
// directory with the Corrupted state, the WB_DE / GET_DE / DENF_NACK
// flows of Figs. 14-16, and the two socket-directory backing schemes of
// §III-D5 (full backup in home memory, or the constant-overhead
// DirEvict-bit scheme).
//
// The host keeps each live socket-level entry in exactly one place: the
// directory cache or its scheme's backing store. Under MemoryBackup the
// modelled home-memory region still holds every entry, but the host's
// backup table holds only the entries the cache lacks: the cached copy
// is authoritative, and a backup write was never charged, so the
// region's copy of a cached entry is never observed.
package socket

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Backing selects how socket-level directory entries survive eviction
// from the socket directory cache (§III-D5).
type Backing uint8

const (
	// MemoryBackup keeps a full copy of every socket-level entry in home
	// memory (solution 1: simple, 1.2% DRAM overhead at four sockets).
	// The host stores only the copies of entries the directory cache
	// does not hold (see the package doc).
	MemoryBackup Backing = iota
	// DirEvictBit stores an evicted socket-level entry in the memory
	// block's reserved partition and records it with one DirEvict bit
	// per block (solution 2: 0.2% constant overhead).
	DirEvictBit
)

// Params configure the multi-socket system.
type Params struct {
	Sockets int
	// InterSocketCycles is the one-way inter-socket routing delay
	// (§IV: 20 ns, i.e. 80 cycles at 4 GHz).
	InterSocketCycles sim.Cycle
	// DirCacheEntries sizes the socket-level directory cache; ways fixes
	// its associativity.
	DirCacheEntries, DirCacheWays int
	Backing                       Backing

	// HomeGroups organizes the sockets hierarchically for home-agent
	// distribution (the 8/16-socket scale-frontier organizations): the
	// low address bits select the group, the next bits the socket within
	// it, so consecutive blocks interleave across groups first and board
	// locality is preserved within a group. 0 or 1 keeps the classic flat
	// addr%sockets distribution. Must divide Sockets.
	HomeGroups int
	// IntraGroupCycles, when positive and HomeGroups > 1, is the cheaper
	// one-way delay between sockets of the same group; hops that cross a
	// group boundary still pay InterSocketCycles. 0 charges the flat
	// InterSocketCycles everywhere.
	IntraGroupCycles sim.Cycle

	// WrapHome, when non-nil, decorates the per-socket home agent each
	// engine talks to (fault campaigns interpose WB_DE drop/duplication
	// here). Socket-level state remains authoritative underneath.
	WrapHome func(socket int, h core.Home) core.Home
	// Faults, when non-nil, is consulted at the inter-socket message
	// seams (currently: dropping a DENF_NACK so home must retransmit the
	// forwarded request after a timeout).
	Faults ForwardFaults
}

// ForwardFaults is the socket-layer fault seam, implemented by
// internal/faults.
type ForwardFaults interface {
	// DropDENFNack reports whether the DENF_NACK socket f just sent for
	// addr should be lost in transit, forcing a timeout-and-retransmit.
	DropDENFNack(f int, addr coher.Addr) bool
}

// ErrTooManySockets refuses a system with more sockets than the packed
// socket-level entry's sharer vector holds (coher.MaxPackedSockets). It
// is coher.ErrTooManySockets, so config can name the same error without
// importing this package.
var ErrTooManySockets = coher.ErrTooManySockets

// DefaultParams returns the paper's four-socket evaluation parameters.
func DefaultParams(sockets, dirEntries int) Params {
	return Params{
		Sockets:           sockets,
		InterSocketCycles: 80,
		DirCacheEntries:   dirEntries,
		DirCacheWays:      8,
		Backing:           MemoryBackup,
	}
}

// Socket is one CMP of the system.
type Socket struct {
	Engine *core.Engine
	Cores  []*cpu.Core
}

// Stats aggregates socket-layer activity.
type Stats struct {
	SocketMisses     uint64
	SocketForwards   uint64 // requests forwarded to a sharer/owner socket
	DENFNacks        uint64 // Fig. 15 step 7 retries
	CorruptedMerges  uint64 // WB_DE read-modify-write merges (Fig. 14)
	DirCacheMisses   uint64
	DirEvictBitHits  uint64
	LastCopyRestores uint64
}

// System is a runnable multi-socket machine.
type System struct {
	P       Params
	Sockets []*Socket

	mem  *mem.Memory
	dram *dram.DRAM
	// dirCache and backup hold socket-level entries packed into one word
	// each (coher.SocketEntry.Pack).
	dirCache *cache.Array[uint64]
	// backup is the MemoryBackup scheme's reserved home-memory region
	// (§III-D5, solution 1). The region holds every live entry; the
	// table holds those the directory cache does not, so each live entry
	// has one host copy.
	backup entryTable
	stats  Stats
}

// New assembles the system: spec describes one socket (its Dir
// constructor is invoked per socket); streams supplies the reference
// stream for every core, socket-major.
func New(p Params, spec core.SystemSpec, streams []cpu.Stream) (*System, error) {
	if p.Sockets > coher.MaxPackedSockets {
		return nil, fmt.Errorf("socket: %w: %d sockets, at most %d", ErrTooManySockets, p.Sockets, coher.MaxPackedSockets)
	}
	if len(streams) != p.Sockets*spec.Cores {
		return nil, fmt.Errorf("socket: need %d streams, got %d", p.Sockets*spec.Cores, len(streams))
	}
	sets := p.DirCacheEntries / p.DirCacheWays
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("socket: directory cache sets %d not a power of two", sets)
	}
	if p.HomeGroups > 1 && p.Sockets%p.HomeGroups != 0 {
		return nil, fmt.Errorf("socket: %d home groups do not divide %d sockets", p.HomeGroups, p.Sockets)
	}
	sys := &System{
		P:        p,
		mem:      mem.MustNew(p.Sockets, spec.Cores),
		dram:     dram.MustNew(spec.DRAM),
		dirCache: cache.New[uint64](cache.Geometry{Sets: sets, Ways: p.DirCacheWays}, cache.NRU),
	}
	for s := 0; s < p.Sockets; s++ {
		l, err := buildLLC(spec)
		if err != nil {
			return nil, err
		}
		mesh := noc.MustNew(spec.NoC, spec.Cores, spec.LLCBanks)
		up := spec.Uncore
		up.Cores = spec.Cores
		up.Backend = spec.Backend
		up.Policy = spec.Policy
		up.Socket = s
		var h core.Home = &homeAgent{sys: sys, socket: s}
		if p.WrapHome != nil {
			h = p.WrapHome(s, h)
		}
		eng := core.New(up, spec.Dir(), l, mesh, h)
		sock := &Socket{Engine: eng}
		ports := make([]core.CorePort, spec.Cores)
		for i := 0; i < spec.Cores; i++ {
			c := cpu.New(coher.CoreID(i), spec.CPU, streams[s*spec.Cores+i], eng)
			sock.Cores = append(sock.Cores, c)
			ports[i] = c
		}
		eng.AttachCores(ports)
		sys.Sockets = append(sys.Sockets, sock)
	}
	return sys, nil
}

// Run drives every core of every socket to completion.
func (sys *System) Run() sim.Cycle {
	c, _ := sys.RunCtx(nil, nil)
	return c
}

// RunCtx is Run with cooperative cancellation (see core.System.RunCtx):
// the run aborts with ctx's error within sim.CancelEvery steps of
// cancellation, and steps (when non-nil) tracks progress for hang
// diagnostics.
func (sys *System) RunCtx(ctx context.Context, steps *atomic.Uint64) (sim.Cycle, error) {
	var agents []sim.Clocked
	for _, s := range sys.Sockets {
		for _, c := range s.Cores {
			agents = append(agents, c)
		}
	}
	return sim.Drive(agents, sim.ContextHook(ctx, steps, nil))
}

// Stats returns the socket-layer counters.
func (sys *System) Stats() Stats { return sys.stats }

// DRAM exposes the shared memory model.
func (sys *System) DRAM() *dram.DRAM { return sys.dram }

// Mem exposes home-memory metadata for tests.
func (sys *System) Mem() *mem.Memory { return sys.mem }

// CheckInvariants validates every socket plus the socket-level
// directory: every holder the socket directory records must actually
// hold the block (in cores, LLC, or a home-memory segment), and every
// socket holding a block must be recorded.
func (sys *System) CheckInvariants() error {
	for i, s := range sys.Sockets {
		if err := s.Engine.CheckInvariants(); err != nil {
			return fmt.Errorf("socket %d: %w", i, err)
		}
	}
	return sys.CheckSocketDirectory()
}

// CheckSocketDirectory cross-validates the socket-level directory
// against per-socket ground truth, walking the directory cache and the
// backing store under either scheme:
//
//   - no address is held both in the cache and in the backing store,
//     and the backing store holds only live entries;
//   - a Shared entry has at least two sharers;
//   - every socket an entry records holds the block (in its cores, its
//     LLC, or a home-memory segment);
//   - every socket that holds a block (an LLC data line or housed
//     entry, an L2 block of one of its cores, or a live home-memory
//     segment) is among the holders of the block's entry.
//
// Of all violations it reports the one at the lowest address (at one
// address, an entry's own violation before an unrecorded holder, and
// the lowest such socket first), so the error does not depend on walk
// order. The walk allocates nothing per block.
func (sys *System) CheckSocketDirectory() error {
	var (
		first   error
		firstAt coher.Addr
		rank    int
	)
	report := func(addr coher.Addr, r int, err error) {
		if err != nil && (first == nil || addr < firstAt || addr == firstAt && r < rank) {
			first, firstAt, rank = err, addr, r
		}
	}
	sys.dirCache.ForEachValid(func(_, _ int, a uint64, w *uint64) {
		addr := coher.Addr(a)
		if _, ok := sys.backedEntry(addr); ok {
			report(addr, 0, fmt.Errorf("socket dir holds %#x both cached and in its backing store", a))
		}
		report(addr, 0, sys.checkSocketEntry(addr, coher.UnpackSocketEntry(*w)))
	})
	sys.forEachBacked(func(addr coher.Addr, e coher.SocketEntry) {
		if sys.dirCache.Contains(uint64(addr)) {
			return // reported by the cache walk
		}
		if !e.Live() {
			report(addr, 0, fmt.Errorf("socket dir backing store holds a dead entry for %#x", uint64(addr)))
		}
		report(addr, 0, sys.checkSocketEntry(addr, e))
	})
	sys.forEachHeld(func(g int, addr coher.Addr) {
		if first != nil && addr > firstAt {
			return // cannot be the lowest violation
		}
		e := sys.peekSocketEntry(addr)
		switch {
		case !e.Live():
			report(addr, 1+g, fmt.Errorf("socket %d holds %#x but the socket dir has no entry for it", g, uint64(addr)))
		case !e.Holders().Contains(g):
			report(addr, 1+g, fmt.Errorf("socket %d holds %#x but the socket dir entry (%+v) omits it", g, uint64(addr), e))
		}
	})
	return first
}

// checkSocketEntry checks one socket-level entry's shape and that every
// socket it records holds the block.
func (sys *System) checkSocketEntry(addr coher.Addr, e coher.SocketEntry) error {
	if e.State == coher.SockShared && e.Sharers.Count() < 2 {
		return fmt.Errorf("socket dir entry for %#x (%+v) is Shared with %d sharer(s)",
			uint64(addr), e, e.Sharers.Count())
	}
	var err error
	e.Holders().ForEach(func(g int) {
		if err != nil || sys.Sockets[g].Engine.HasAnyCopy(addr) {
			return
		}
		if _, live := sys.mem.ReadSegment(addr, g); live {
			return
		}
		err = fmt.Errorf("socket dir records socket %d holding %#x (%+v) but it holds nothing",
			g, uint64(addr), e)
	})
	return err
}

// forEachHeld visits every block some socket holds, once per place it
// holds it: an LLC data line or housed entry, an L2 block of one of its
// cores, or a live home-memory segment.
func (sys *System) forEachHeld(fn func(socket int, addr coher.Addr)) {
	for g, s := range sys.Sockets {
		l := s.Engine.LLC()
		l.ForEachData(func(addr coher.Addr, _ bool) { fn(g, addr) })
		l.ForEachDE(func(addr coher.Addr, _ bool, _ coher.Entry) { fn(g, addr) })
		for _, c := range s.Cores {
			c.ForEachBlock(func(addr coher.Addr, _ coher.PrivState) { fn(g, addr) })
		}
	}
	sys.mem.ForEachCorrupted(func(addr coher.Addr, b *mem.BlockMeta) {
		for g, e := range b.Segments {
			if e.Live() {
				fn(g, addr)
			}
		}
	})
}

// forEachBacked visits every entry in the backing store.
func (sys *System) forEachBacked(fn func(addr coher.Addr, e coher.SocketEntry)) {
	if sys.P.Backing == MemoryBackup {
		sys.backup.forEach(func(addr coher.Addr, w uint64) { fn(addr, coher.UnpackSocketEntry(w)) })
		return
	}
	sys.mem.ForEachDirEvict(fn)
}

func buildLLC(spec core.SystemSpec) (*llc.LLC, error) {
	if spec.LLCSets > 0 {
		return llc.NewGeometry(spec.LLCSets, spec.LLCWays, spec.LLCBanks, spec.Mode, spec.Repl)
	}
	return llc.New(spec.LLCBytes, spec.LLCWays, spec.LLCBanks, spec.Mode, spec.Repl)
}
