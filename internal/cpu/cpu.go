// Package cpu models a processor core and its private cache hierarchy:
// split L1 instruction/data caches backed by a unified private L2 that
// is inclusive of both L1s. The core consumes a memory-access stream and
// maintains a local clock; L2 misses and evictions are delegated to the
// uncore protocol engine. Timing is a deliberate approximation of the
// paper's out-of-order cores: a 4-wide issue front end plus a
// memory-level-parallelism divisor on load-miss stalls (DESIGN.md,
// "Scheduling model").
package cpu

import (
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/sim"
	"repro/internal/stream"
)

// OpKind is the class of one memory operation.
type OpKind uint8

const (
	// Load is a data read.
	Load OpKind = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch (code blocks are always cached in
	// S state, §III-A).
	Ifetch
)

// Access is one element of a core's reference stream: Gap non-memory
// instructions followed by one memory operation.
type Access struct {
	Gap  uint32
	Kind OpKind
	Addr coher.Addr
}

// Stream supplies a core's reference stream.
type Stream interface {
	// Next returns the next access; ok is false at end of stream.
	Next() (a Access, ok bool)
}

// Uncore is the protocol engine interface a core calls into on L2 misses
// and evictions.
type Uncore interface {
	// Read handles a GetS for a data or code block; it returns the
	// completion time and the private state granted (S or E).
	Read(t sim.Cycle, c coher.CoreID, addr coher.Addr, code bool) (done sim.Cycle, granted coher.PrivState)
	// Write handles a GetX; the block is granted in M.
	Write(t sim.Cycle, c coher.CoreID, addr coher.Addr) (done sim.Cycle)
	// Upgrade handles an S→M upgrade request.
	Upgrade(t sim.Cycle, c coher.CoreID, addr coher.Addr) (done sim.Cycle)
	// Evict delivers an eviction notice for a block leaving the private
	// hierarchy in the given state (PutS/PutE/PutM).
	Evict(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState)
}

// Params configure a core.
type Params struct {
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	// IssueWidth is the non-memory instruction throughput per cycle.
	IssueWidth int
	// L1HitCycles and L2HitCycles are access latencies charged to the
	// local clock on hits at each level.
	L1HitCycles, L2HitCycles sim.Cycle
	// LoadMLP divides load-miss stall time, approximating the overlap an
	// out-of-order window extracts. StoreMLP does the same for stores
	// (retired through a store buffer, hence larger).
	LoadMLP, StoreMLP float64
	// PrefetchDegree enables a stream prefetcher: on an L2 miss that
	// continues a detected sequential stream, the next PrefetchDegree
	// blocks are fetched into the L2 off the critical path. 0 disables
	// (the paper's configuration).
	PrefetchDegree int
	// StatInterval, when positive, streams per-interval IPC: every
	// StatInterval retired instructions the core folds that interval's
	// IPC into a bounded decimating series readable via IntervalIPC.
	// Intervals are keyed to the core's own retirement count and local
	// clock, so the series is identical under any scheduler or worker
	// count. 0 disables with zero overhead.
	StatInterval int
}

// DefaultParams returns Table I private-hierarchy parameters: 32 KB
// 8-way L1s, 256 KB 8-way L2, with the timing approximation described
// in DESIGN.md.
func DefaultParams() Params {
	return Params{
		L1Bytes: 32 << 10, L1Ways: 8,
		L2Bytes: 256 << 10, L2Ways: 8,
		IssueWidth:  4,
		L1HitCycles: 1, L2HitCycles: 10,
		LoadMLP: 2.0, StoreMLP: 4.0,
	}
}

type l2Line struct {
	state        coher.PrivState
	inL1I, inL1D bool
}

// Stats aggregates per-core activity.
type Stats struct {
	Loads, Stores, Ifetches uint64
	L1DMisses, L1IMisses    uint64
	L2Misses                uint64 // the paper's "core cache misses"
	Prefetches              uint64
	Upgrades                uint64
	Retired                 uint64
	Cycles                  sim.Cycle
	// InvalidationsReceived counts blocks removed by external
	// invalidations (demand, DEV, or inclusion), the probe an attacker
	// observes in the side-channel example.
	InvalidationsReceived uint64
}

// Add merges o into s; summed over cores, Cycles is total core-cycles.
func (s *Stats) Add(o *Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Ifetches += o.Ifetches
	s.L1DMisses += o.L1DMisses
	s.L1IMisses += o.L1IMisses
	s.L2Misses += o.L2Misses
	s.Prefetches += o.Prefetches
	s.Upgrades += o.Upgrades
	s.Retired += o.Retired
	s.Cycles += o.Cycles
	s.InvalidationsReceived += o.InvalidationsReceived
}

// Core is one processor with private caches. It implements sim.Clocked.
type Core struct {
	id     coher.CoreID
	p      Params
	l1i    *cache.Array[struct{}]
	l1d    *cache.Array[struct{}]
	l2     *cache.Array[l2Line]
	stream Stream
	uncore Uncore

	clock    sim.Cycle
	done     bool
	gapFrac  uint32
	stallRem float64
	lastMiss [8]coher.Addr // recent L2-miss addresses for stream detection
	missPtr  int
	stats    Stats

	// Interval-IPC streaming state (StatInterval > 0 only). Excluded
	// from AppendState like the rest of the stats.
	ivRetired uint64
	ivStart   sim.Cycle
	ivSeries  stream.Series
}

// New constructs a core. The uncore may be set later with Attach when
// construction order requires it.
func New(id coher.CoreID, p Params, stream Stream, uncore Uncore) *Core {
	return &Core{
		id:     id,
		p:      p,
		l1i:    cache.New[struct{}](cache.MustGeometry(p.L1Bytes, p.L1Ways, coher.BlockBytes), cache.LRU),
		l1d:    cache.New[struct{}](cache.MustGeometry(p.L1Bytes, p.L1Ways, coher.BlockBytes), cache.LRU),
		l2:     cache.New[l2Line](cache.MustGeometry(p.L2Bytes, p.L2Ways, coher.BlockBytes), cache.LRU),
		stream: stream,
		uncore: uncore,
	}
}

// Attach wires the uncore after construction.
func (c *Core) Attach(u Uncore) { c.uncore = u }

// ID returns the core's identity.
func (c *Core) ID() coher.CoreID { return c.id }

// Stats returns a snapshot of the core's counters with Cycles filled in.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.clock
	return s
}

// IntervalIPC returns the per-interval IPC series streamed while
// Params.StatInterval > 0 (empty otherwise). The returned value shares
// point storage with the core; treat it as read-only.
func (c *Core) IntervalIPC() stream.Series { return c.ivSeries }

// Now implements sim.Clocked; after the stream drains it keeps
// reporting the final local time.
func (c *Core) Now() sim.Cycle { return c.clock }

// Done implements sim.Clocked.
func (c *Core) Done() bool { return c.done }

// Step implements sim.Clocked: consume one access from the stream.
func (c *Core) Step() {
	a, ok := c.stream.Next()
	if !ok {
		c.done = true
		return
	}
	// Non-memory instructions retire IssueWidth per cycle; fractional
	// cycles carry over.
	c.gapFrac += a.Gap
	c.clock += sim.Cycle(c.gapFrac / uint32(c.p.IssueWidth))
	c.gapFrac %= uint32(c.p.IssueWidth)
	c.stats.Retired += uint64(a.Gap) + 1

	switch a.Kind {
	case Load:
		c.stats.Loads++
		c.load(a.Addr)
	case Store:
		c.stats.Stores++
		c.store(a.Addr)
	case Ifetch:
		c.stats.Ifetches++
		c.ifetch(a.Addr)
	}

	if c.p.StatInterval > 0 {
		c.ivRetired += uint64(a.Gap) + 1
		if c.ivRetired >= uint64(c.p.StatInterval) {
			dc := c.clock - c.ivStart
			if dc < 1 {
				dc = 1
			}
			c.ivSeries.Observe(float64(c.ivRetired) / float64(dc))
			c.ivRetired = 0
			c.ivStart = c.clock
		}
	}
}

// stall charges raw stall cycles to the clock after dividing by the
// overlap factor, accumulating the fractional remainder.
func (c *Core) stall(raw sim.Cycle, mlp float64) {
	c.stallRem += float64(raw) / mlp
	whole := sim.Cycle(c.stallRem)
	c.stallRem -= float64(whole)
	c.clock += whole
}

func (c *Core) load(addr coher.Addr) {
	if set, way, ok := c.l1d.Lookup(uint64(addr)); ok {
		c.l1d.Touch(set, way)
		c.touchL2(addr)
		c.clock += c.p.L1HitCycles
		return
	}
	c.stats.L1DMisses++
	if set, way, ok := c.l2.Lookup(uint64(addr)); ok {
		c.l2.Touch(set, way)
		c.fillL1(c.l1d, addr, false)
		c.l2.Payload(set, way).inL1D = true
		c.clock += c.p.L2HitCycles
		return
	}
	c.stats.L2Misses++
	done, granted := c.uncore.Read(c.clock, c.id, addr, false)
	c.stall(done-c.clock, c.p.LoadMLP)
	c.install(addr, granted, false)
	c.maybePrefetch(addr)
}

func (c *Core) store(addr coher.Addr) {
	if set, way, ok := c.l2.Lookup(uint64(addr)); ok {
		line := c.l2.Payload(set, way)
		c.l2.Touch(set, way)
		switch line.state {
		case coher.PrivModified:
			// Fast path.
		case coher.PrivExclusive:
			line.state = coher.PrivModified // silent E→M
		case coher.PrivShared:
			c.stats.Upgrades++
			done := c.uncore.Upgrade(c.clock, c.id, addr)
			// Re-check: an inclusion eviction during the upgrade can
			// invalidate this core's own line, so the cached (set, way) is
			// only trusted if the block is still resident.
			if s2, w2, ok2 := c.l2.Lookup(uint64(addr)); ok2 {
				set, way = s2, w2
				c.l2.Payload(set, way).state = coher.PrivModified
			} else {
				ok = false
			}
			c.stall(done-c.clock, c.p.StoreMLP)
		}
		if s1, w1, ok1 := c.l1d.Lookup(uint64(addr)); ok1 {
			c.l1d.Touch(s1, w1)
			c.clock += c.p.L1HitCycles
		} else {
			c.stats.L1DMisses++
			c.fillL1(c.l1d, addr, false)
			if ok {
				c.l2.Payload(set, way).inL1D = true
			}
			c.clock += c.p.L2HitCycles
		}
		return
	}
	c.stats.L1DMisses++
	c.stats.L2Misses++
	done := c.uncore.Write(c.clock, c.id, addr)
	c.stall(done-c.clock, c.p.StoreMLP)
	c.install(addr, coher.PrivModified, false)
}

func (c *Core) ifetch(addr coher.Addr) {
	if set, way, ok := c.l1i.Lookup(uint64(addr)); ok {
		c.l1i.Touch(set, way)
		c.touchL2(addr)
		return // fetch latency hidden on L1I hits
	}
	c.stats.L1IMisses++
	if set, way, ok := c.l2.Lookup(uint64(addr)); ok {
		c.l2.Touch(set, way)
		c.fillL1(c.l1i, addr, true)
		c.l2.Payload(set, way).inL1I = true
		c.clock += c.p.L2HitCycles
		return
	}
	c.stats.L2Misses++
	done, granted := c.uncore.Read(c.clock, c.id, addr, true)
	c.stall(done-c.clock, c.p.LoadMLP)
	c.install(addr, granted, true)
}

func (c *Core) touchL2(addr coher.Addr) {
	if set, way, ok := c.l2.Lookup(uint64(addr)); ok {
		c.l2.Touch(set, way)
	}
}

// install fills a freshly granted block into L2 and the appropriate L1.
func (c *Core) install(addr coher.Addr, state coher.PrivState, code bool) {
	set := c.l2.SetIndex(uint64(addr))
	way, free := c.l2.FreeWay(set)
	if !free {
		way = c.l2.Victim(set)
		c.evictL2(set, way)
	}
	line := l2Line{state: state}
	if code {
		line.inL1I = true
	} else {
		line.inL1D = true
	}
	c.l2.Insert(set, way, uint64(addr), line)
	if code {
		c.fillL1(c.l1i, addr, true)
	} else {
		c.fillL1(c.l1d, addr, false)
	}
}

// fillL1 inserts addr into an L1; a displaced L1 line only clears its
// presence bit in L2 (L2 is inclusive of the L1s, so no notice leaves
// the core).
func (c *Core) fillL1(arr *cache.Array[struct{}], addr coher.Addr, code bool) {
	set := arr.SetIndex(uint64(addr))
	way, free := arr.FreeWay(set)
	if !free {
		way = arr.Victim(set)
		victim := coher.Addr(arr.AddrOf(set, way))
		if s2, w2, ok := c.l2.Lookup(uint64(victim)); ok {
			if code {
				c.l2.Payload(s2, w2).inL1I = false
			} else {
				c.l2.Payload(s2, w2).inL1D = false
			}
		}
		arr.Invalidate(set, way)
	}
	arr.Insert(set, way, uint64(addr), struct{}{})
}

// evictL2 removes the line at (set, way) from L2 (and its L1 copies) and
// notifies the uncore.
func (c *Core) evictL2(set, way int) {
	addr := coher.Addr(c.l2.AddrOf(set, way))
	line := *c.l2.Payload(set, way)
	c.dropL1(addr, line)
	c.l2.Invalidate(set, way)
	c.uncore.Evict(c.clock, c.id, addr, line.state)
}

func (c *Core) dropL1(addr coher.Addr, line l2Line) {
	if line.inL1I {
		if s, w, ok := c.l1i.Lookup(uint64(addr)); ok {
			c.l1i.Invalidate(s, w)
		}
	}
	if line.inL1D {
		if s, w, ok := c.l1d.Lookup(uint64(addr)); ok {
			c.l1d.Invalidate(s, w)
		}
	}
}

// maybePrefetch detects a sequential miss stream and pulls the next
// blocks into the L2 off the critical path (no stall charged; the
// coherence actions are real, so prefetched blocks are tracked like any
// other).
func (c *Core) maybePrefetch(addr coher.Addr) {
	if c.p.PrefetchDegree <= 0 {
		return
	}
	streaming := false
	for _, m := range c.lastMiss {
		if m != 0 && m+1 == addr {
			streaming = true
			break
		}
	}
	c.lastMiss[c.missPtr] = addr
	c.missPtr = (c.missPtr + 1) % len(c.lastMiss)
	if !streaming {
		return
	}
	for d := 1; d <= c.p.PrefetchDegree; d++ {
		next := addr + coher.Addr(d)
		if _, _, ok := c.l2.Lookup(uint64(next)); ok {
			continue
		}
		c.stats.Prefetches++
		_, granted := c.uncore.Read(c.clock, c.id, next, false)
		c.installPrefetch(next, granted)
	}
}

// installPrefetch fills a prefetched block into the L2 only (no L1
// pollution).
func (c *Core) installPrefetch(addr coher.Addr, state coher.PrivState) {
	set := c.l2.SetIndex(uint64(addr))
	way, free := c.l2.FreeWay(set)
	if !free {
		way = c.l2.Victim(set)
		c.evictL2(set, way)
	}
	c.l2.Insert(set, way, uint64(addr), l2Line{state: state})
}

// --- protocol-engine-facing port (external coherence actions) ---------

// HasBlock reports whether the core currently caches addr and in which
// state.
func (c *Core) HasBlock(addr coher.Addr) (coher.PrivState, bool) {
	if set, way, ok := c.l2.Lookup(uint64(addr)); ok {
		return c.l2.Payload(set, way).state, true
	}
	return coher.PrivInvalid, false
}

// Invalidate removes addr from the private hierarchy (external
// invalidation: demand, DEV, or inclusion victim) and returns the state
// the block had. No eviction notice is generated; the engine initiated
// the action and updates the directory itself.
func (c *Core) Invalidate(addr coher.Addr) coher.PrivState {
	set, way, ok := c.l2.Lookup(uint64(addr))
	if !ok {
		return coher.PrivInvalid
	}
	line := *c.l2.Payload(set, way)
	c.dropL1(addr, line)
	c.l2.Invalidate(set, way)
	c.stats.InvalidationsReceived++
	return line.state
}

// Downgrade moves addr from M/E to S (serving a forwarded GetS) and
// returns the prior state so the engine can account a dirty transfer.
func (c *Core) Downgrade(addr coher.Addr) coher.PrivState {
	set, way, ok := c.l2.Lookup(uint64(addr))
	if !ok {
		return coher.PrivInvalid
	}
	line := c.l2.Payload(set, way)
	prev := line.state
	if prev == coher.PrivModified || prev == coher.PrivExclusive {
		line.state = coher.PrivShared
	}
	return prev
}

// PrivateBlocks returns the number of valid L2 lines, used by occupancy
// instrumentation and invariant checks.
func (c *Core) PrivateBlocks() int { return c.l2.CountValid() }

// ForEachBlock visits every L2-resident block, for invariant checks.
func (c *Core) ForEachBlock(fn func(addr coher.Addr, state coher.PrivState)) {
	c.l2.ForEachValid(func(_, _ int, a uint64, line *l2Line) {
		fn(coher.Addr(a), line.state)
	})
}

// EvictBlock voluntarily evicts addr from the private hierarchy through
// the ordinary capacity-eviction path (eviction notice to the uncore,
// unlike Invalidate). It is the model checker's "evict" op: it lets the
// bounded explorer reach PutS/PutM states without filling the L2.
// Reports whether the block was resident.
func (c *Core) EvictBlock(addr coher.Addr) bool {
	set, way, ok := c.l2.Lookup(uint64(addr))
	if !ok {
		return false
	}
	c.evictL2(set, way)
	return true
}

// AppendState appends the core's protocol-visible cache state (L1I,
// L1D, L2 contents with coherence states and replacement metadata) to
// buf for model-checker fingerprinting. The clock, stall remainders,
// and stats are excluded (they affect timing, never which coherence
// actions are reachable), as is the recent-miss history — the checker
// runs with PrefetchDegree 0, where that history is dead state.
func (c *Core) AppendState(buf []byte) []byte {
	buf = c.l1i.AppendState(buf, nil)
	buf = c.l1d.AppendState(buf, nil)
	return c.l2.AppendState(buf, func(b []byte, l *l2Line) []byte {
		tag := byte(l.state)
		if l.inL1I {
			tag |= 0x10
		}
		if l.inL1D {
			tag |= 0x20
		}
		return append(b, tag)
	})
}
