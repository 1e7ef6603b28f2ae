package main

import (
	"time"

	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/sim"
)

// The traced run times the calls into each step-path layer from the
// outside: thin decorators are installed through the public seams the
// simulator already exposes (streams passed in, sim.Drive's agent list,
// Core.Attach, Engine.AttachCores, SystemSpec.Dir and the WrapHome
// hooks), so no simulator code changes and the untraced path is exactly
// the harness's. The engine internals (llc, noc, coher) have no seam and
// stay inside core's self time.
//
// Every scheduler step is timed, and on one step in 2^sampleBits every
// call into every layer is timed as well; call counts are exact, as
// every call is counted. A clock read waits for the simulator's
// outstanding cache misses, so a span costs more in the engine than in
// any calibration loop, by an amount that grows with the cell's working
// set: corrected with a loop's span cost, a run timing every call on
// every step still came out 0.8-1.3x the untraced time on the host
// README.md describes. So the span cost is measured inside the run
// instead, with the plain steps as the control (see hostLayers), and
// sampling keeps what error remains small.

// sampleBits sets the sampled fraction of steps to 1/2^sampleBits.
const sampleBits = 3

type spanID uint8

const (
	spanDrive spanID = iota
	spanStep
	spanStepSampled
	spanProbe
	spanHasBlock
	spanInvalidate
	spanDowngrade
	spanNext
	spanRead
	spanWrite
	spanUpgrade
	spanEvict
	spanLookup
	spanStore
	spanFree
	spanTouch
	spanFetchBlock
	spanWriteBack
	spanWBDE
	spanGetDE
	spanPutDE
	spanSocketEvict
	spanCorrupted
	spanSegment
	spanAcquireExclusive
	spanSharedElsewhere
	numSpans
)

// spanNames are "layer.Method"; the layer is the part before the dot.
var spanNames = [numSpans]string{
	"sim.Drive", "cpu.Step", "cpu.Step.sampled", "trace.probe", "cpu.HasBlock", "cpu.Invalidate", "cpu.Downgrade",
	"workload.Next",
	"core.Read", "core.Write", "core.Upgrade", "core.Evict",
	"directory.Lookup", "directory.Store", "directory.Free", "directory.Touch",
	"home.FetchBlock", "home.WriteBack", "home.WBDE", "home.GetDE", "home.PutDE",
	"home.SocketEvict", "home.Corrupted", "home.Segment", "home.AcquireExclusive",
	"home.SharedElsewhere",
}

// ringSize is how many of the last raw spans to end a traced run keeps.
const ringSize = 1 << 16

type spanAgg struct {
	count    uint64
	children uint64 // direct child spans, for the calibration correction
	total    int64  // ns
	self     int64  // ns: total minus direct children's totals
}

type rawSpan struct {
	seq, parent, step uint64
	start, dur        int64
	id                spanID
}

type frame struct {
	id     spanID
	seq    uint64
	start  int64
	child  int64
	nchild uint64
}

// tracer records nested spans on the simulation goroutine. active is
// set for the traced Drive call, so the invariant checks and stats
// reads that follow a run go through the decorators unrecorded; on is
// set inside sampled steps.
type tracer struct {
	active, on bool
	step       uint64
	seq        uint64 // spans begun
	ended      uint64 // spans ended
	stack      []frame
	calls      [numSpans]uint64 // every call, sampled or not
	agg        [numSpans]spanAgg
	ring       []rawSpan
	probe      prober
}

func newTracer() *tracer {
	t := &tracer{stack: make([]frame, 0, 16), ring: make([]rawSpan, ringSize)}
	t.probe = &tracedNoDir{inner: directory.NoDir{}, t: t}
	return t
}

var epoch = time.Now()

// nowNs reads only the monotonic clock (time.Since skips the wall-clock
// read that time.Now pays for).
func nowNs() int64 { return int64(time.Since(epoch)) }

// begin and end bracket a decorated call: counted while active, timed
// inside a sampled step.
func (t *tracer) begin(id spanID) {
	if t.active {
		t.calls[id]++
		if t.on {
			t.push(id)
		}
	}
}

func (t *tracer) end() {
	if t.on {
		t.pop()
	}
}

func (t *tracer) push(id spanID) {
	t.seq++
	t.stack = append(t.stack, frame{id: id, seq: t.seq, start: nowNs()})
}

func (t *tracer) pop() {
	stop := nowNs()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := stop - f.start
	a := &t.agg[f.id]
	a.count++
	a.children += f.nchild
	a.total += d
	a.self += d - f.child
	var parent uint64
	if n > 0 {
		p := &t.stack[n-1]
		p.child += d
		p.nchild++
		parent = p.seq
	}
	t.ring[t.ended%ringSize] = rawSpan{seq: f.seq, parent: parent, step: t.step, start: f.start, dur: d, id: f.id}
	t.ended++
}

// spans returns the retained raw spans in the order they ended.
func (t *tracer) spans() []rawSpan {
	if t.ended <= ringSize {
		return t.ring[:t.ended]
	}
	i := t.ended % ringSize
	return append(append([]rawSpan(nil), t.ring[i:]...), t.ring[:i]...)
}

// countingCost times, at start-up, what a decorated call costs outside
// a sampled step, where it is only counted: a decorated call into a
// layer that does nothing (NoDir.Lookup) against the bare call, in
// batches; the median batch is kept.
func countingCost() float64 {
	const batches, n = 15, 1 << 15
	var costs []float64
	for i := 0; i < batches; i++ {
		t := newTracer()
		t.active = true
		var bare directory.Directory = directory.NoDir{}
		var traced directory.Directory = &tracedDir{inner: bare, t: t}
		loop := func(d directory.Directory) int64 {
			start := nowNs()
			for j := 0; j < n; j++ {
				d.Lookup(coher.Addr(j))
			}
			return nowNs() - start
		}
		base := loop(bare)
		costs = append(costs, float64(loop(traced)-base)/n)
	}
	return median(costs)
}

// corrected is a span kind's self time with the tracing cost removed:
// a span's in-span cost (between its own clock reads) once per call,
// and once per direct child the rest of a span's full cost, which
// falls outside the child's clock reads and so inside the parent's.
func (t *tracer) corrected(id spanID, in, full float64) float64 {
	a := t.agg[id]
	return float64(a.self) - float64(a.count)*in - float64(a.children)*(full-in)
}

// --- decorators -------------------------------------------------------------

// tracedCore decorates everything that belongs to one core: it is the
// agent sim.Drive steps (sim.Clocked), the core's stream (cpu.Stream),
// the engine the core calls into (cpu.Uncore, via Core.Attach) and the
// port the engine calls back through (core.CorePort, via
// Engine.AttachCores). One object per core, all allocated in one
// array, keeps the decorators a step touches close together.
type tracedCore struct {
	t      *tracer
	core   *cpu.Core
	stream cpu.Stream
	uncore cpu.Uncore
}

func (c *tracedCore) Now() sim.Cycle { return c.core.Now() }
func (c *tracedCore) Done() bool     { return c.core.Done() }

// Step is timed on every step; inside a sampled one, every call into
// every layer is timed too. Each step first makes the probe, an empty
// decorated call whose mean duration in sampled steps is the in-span
// cost; it is made on every step so that, like every other decorated
// call, it usually runs untimed.
func (c *tracedCore) Step() {
	t := c.t
	t.step++
	t.calls[spanStep]++
	id := spanStep
	// Fibonacci hashing spreads the sample over cores and phases; a
	// plain modulus can lock onto a core in round-robin stretches.
	if (t.step*0x9E3779B97F4A7C15)>>(64-sampleBits) == 0 {
		id = spanStepSampled
	}
	t.push(id)
	t.on = id == spanStepSampled
	t.probe.probe()
	c.core.Step()
	t.on = false
	t.pop()
}

func (c *tracedCore) Next() (cpu.Access, bool) {
	c.t.begin(spanNext)
	a, ok := c.stream.Next()
	c.t.end()
	return a, ok
}

func (c *tracedCore) Read(t sim.Cycle, id coher.CoreID, addr coher.Addr, code bool) (sim.Cycle, coher.PrivState) {
	c.t.begin(spanRead)
	done, st := c.uncore.Read(t, id, addr, code)
	c.t.end()
	return done, st
}

func (c *tracedCore) Write(t sim.Cycle, id coher.CoreID, addr coher.Addr) sim.Cycle {
	c.t.begin(spanWrite)
	done := c.uncore.Write(t, id, addr)
	c.t.end()
	return done
}

func (c *tracedCore) Upgrade(t sim.Cycle, id coher.CoreID, addr coher.Addr) sim.Cycle {
	c.t.begin(spanUpgrade)
	done := c.uncore.Upgrade(t, id, addr)
	c.t.end()
	return done
}

func (c *tracedCore) Evict(t sim.Cycle, id coher.CoreID, addr coher.Addr, st coher.PrivState) {
	c.t.begin(spanEvict)
	c.uncore.Evict(t, id, addr, st)
	c.t.end()
}

func (c *tracedCore) HasBlock(addr coher.Addr) (coher.PrivState, bool) {
	c.t.begin(spanHasBlock)
	st, ok := c.core.HasBlock(addr)
	c.t.end()
	return st, ok
}

func (c *tracedCore) Invalidate(addr coher.Addr) coher.PrivState {
	c.t.begin(spanInvalidate)
	st := c.core.Invalidate(addr)
	c.t.end()
	return st
}

func (c *tracedCore) Downgrade(addr coher.Addr) coher.PrivState {
	c.t.begin(spanDowngrade)
	st := c.core.Downgrade(addr)
	c.t.end()
	return st
}

// ForEachBlock forwards core.BlockLister, which CheckInvariants
// type-asserts the engine's ports for.
func (c *tracedCore) ForEachBlock(fn func(addr coher.Addr, state coher.PrivState)) {
	c.core.ForEachBlock(fn)
}

// prober makes the probe: an empty decorated call, made through an
// interface like every decorated call, into NoDir.Lookup, a layer call
// that does nothing.
type prober interface{ probe() }

type tracedNoDir struct {
	inner directory.Directory
	t     *tracer
}

func (p *tracedNoDir) probe() {
	p.t.begin(spanProbe)
	p.inner.Lookup(0)
	p.t.end()
}

type tracedDir struct {
	inner directory.Directory
	t     *tracer
}

func (d *tracedDir) Lookup(addr coher.Addr) (coher.Entry, bool) {
	d.t.begin(spanLookup)
	e, ok := d.inner.Lookup(addr)
	d.t.end()
	return e, ok
}

func (d *tracedDir) Store(addr coher.Addr, e coher.Entry) ([]directory.Victim, bool) {
	d.t.begin(spanStore)
	v, housed := d.inner.Store(addr, e)
	d.t.end()
	return v, housed
}

func (d *tracedDir) Free(addr coher.Addr) {
	d.t.begin(spanFree)
	d.inner.Free(addr)
	d.t.end()
}

func (d *tracedDir) Touch(addr coher.Addr) {
	d.t.begin(spanTouch)
	d.inner.Touch(addr)
	d.t.end()
}

func (d *tracedDir) Occupancy() (int, int) { return d.inner.Occupancy() }
func (d *tracedDir) Name() string          { return d.inner.Name() }

// AppendState, Peak and PeakOverflow forward the optional interfaces the
// engine's fingerprint and the stats collectors type-assert for; an
// inner directory without them reads as stateless / zero, as it would
// undecorated.
func (d *tracedDir) AppendState(buf []byte) []byte {
	if s, ok := d.inner.(directory.Stater); ok {
		return s.AppendState(buf)
	}
	return buf
}

func (d *tracedDir) Peak() int {
	if p, ok := d.inner.(interface{ Peak() int }); ok {
		return p.Peak()
	}
	return 0
}

func (d *tracedDir) PeakOverflow() int {
	if p, ok := d.inner.(interface{ PeakOverflow() int }); ok {
		return p.PeakOverflow()
	}
	return 0
}

type tracedHome struct {
	inner core.Home
	t     *tracer
}

func (h *tracedHome) FetchBlock(t sim.Cycle, socket int, addr coher.Addr, exclusive bool) core.FetchResult {
	h.t.begin(spanFetchBlock)
	r := h.inner.FetchBlock(t, socket, addr, exclusive)
	h.t.end()
	return r
}

func (h *tracedHome) WriteBack(t sim.Cycle, socket int, addr coher.Addr) {
	h.t.begin(spanWriteBack)
	h.inner.WriteBack(t, socket, addr)
	h.t.end()
}

func (h *tracedHome) WBDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	h.t.begin(spanWBDE)
	h.inner.WBDE(t, socket, addr, e)
	h.t.end()
}

func (h *tracedHome) GetDE(t sim.Cycle, socket int, addr coher.Addr) (coher.Entry, sim.Cycle, bool) {
	h.t.begin(spanGetDE)
	e, done, ok := h.inner.GetDE(t, socket, addr)
	h.t.end()
	return e, done, ok
}

func (h *tracedHome) PutDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	h.t.begin(spanPutDE)
	h.inner.PutDE(t, socket, addr, e)
	h.t.end()
}

func (h *tracedHome) SocketEvict(t sim.Cycle, socket int, addr coher.Addr) bool {
	h.t.begin(spanSocketEvict)
	r := h.inner.SocketEvict(t, socket, addr)
	h.t.end()
	return r
}

func (h *tracedHome) Corrupted(addr coher.Addr) bool {
	h.t.begin(spanCorrupted)
	r := h.inner.Corrupted(addr)
	h.t.end()
	return r
}

func (h *tracedHome) Segment(socket int, addr coher.Addr) (coher.Entry, bool) {
	h.t.begin(spanSegment)
	e, ok := h.inner.Segment(socket, addr)
	h.t.end()
	return e, ok
}

func (h *tracedHome) AcquireExclusive(t sim.Cycle, socket int, addr coher.Addr) sim.Cycle {
	h.t.begin(spanAcquireExclusive)
	done := h.inner.AcquireExclusive(t, socket, addr)
	h.t.end()
	return done
}

func (h *tracedHome) SharedElsewhere(socket int, addr coher.Addr) bool {
	h.t.begin(spanSharedElsewhere)
	r := h.inner.SharedElsewhere(socket, addr)
	h.t.end()
	return r
}
