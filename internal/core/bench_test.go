package core_test

import (
	"testing"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/sim"
)

// benchPort is a private hierarchy reduced to one state per block of a
// contiguous address range: enough for the engine's CorePort calls,
// with none of the cpu layer's own cost in the measurement.
type benchPort struct {
	base coher.Addr
	held []coher.PrivState
}

func (p *benchPort) HasBlock(a coher.Addr) (coher.PrivState, bool) {
	st := p.held[a-p.base]
	return st, st != coher.PrivInvalid
}

func (p *benchPort) Invalidate(a coher.Addr) coher.PrivState {
	st := p.held[a-p.base]
	p.held[a-p.base] = coher.PrivInvalid
	return st
}

func (p *benchPort) Downgrade(a coher.Addr) coher.PrivState {
	st := p.held[a-p.base]
	p.held[a-p.base] = coher.PrivShared
	return st
}

// txBench drives an engine directly, doing for each requester what its
// core would do with the grant, and keeps simulated time moving forward.
type txBench struct {
	e     *core.Engine
	ports []*benchPort
	now   sim.Cycle
}

const txBase = coher.Addr(1 << 20)

func newTxBench(spec core.SystemSpec, blocks int) *txBench {
	streams := make([]cpu.Stream, spec.Cores)
	for i := range streams {
		streams[i] = &script{}
	}
	sys := core.NewSystem(spec, streams)
	x := &txBench{e: sys.Engine}
	ports := make([]core.CorePort, spec.Cores)
	for i := range ports {
		p := &benchPort{base: txBase, held: make([]coher.PrivState, blocks)}
		x.ports = append(x.ports, p)
		ports[i] = p
	}
	sys.Engine.AttachCores(ports)
	return x
}

func (x *txBench) read(c int, a coher.Addr) {
	done, st := x.e.Read(x.now, coher.CoreID(c), a, false)
	x.ports[c].held[a-txBase] = st
	x.now = done
}

func (x *txBench) write(c int, a coher.Addr) {
	x.now = x.e.Write(x.now, coher.CoreID(c), a)
	x.ports[c].held[a-txBase] = coher.PrivModified
}

func (x *txBench) upgrade(c int, a coher.Addr) {
	x.now = x.e.Upgrade(x.now, coher.CoreID(c), a)
	x.ports[c].held[a-txBase] = coher.PrivModified
}

// txBatch is how many blocks one timed stretch covers: consecutive
// blocks, so no two share an LLC set and no timed transaction evicts.
const txBatch = 128

// runTx times op once per block over batches of txBatch blocks. Each
// batch is prepared by setup and torn down afterwards (every copy,
// entry and LLC line of the block removed) with the timer stopped, so
// an op is exactly one transaction from the same starting state. One
// untimed batch first grows whatever the engine's structures grow once.
func runTx(b *testing.B, x *txBench, setup, op func(a coher.Addr)) {
	batch := func(n int, timed bool) {
		for i := 0; i < n; i++ {
			setup(txBase + coher.Addr(i))
		}
		if timed {
			b.StartTimer()
		}
		for i := 0; i < n; i++ {
			op(txBase + coher.Addr(i))
		}
		if timed {
			b.StopTimer()
		}
		for i := 0; i < n; i++ {
			x.e.InjectInvalidation(x.now, txBase+coher.Addr(i))
		}
	}
	b.ReportAllocs()
	b.StopTimer()
	b.ResetTimer()
	batch(txBatch, false)
	for done := 0; done < b.N; done += txBatch {
		batch(min(txBatch, b.N-done), true)
	}
}

// BenchmarkTransaction measures one protocol transaction through the
// engine on the 8-core Table I socket at scale 16 (the Fig18 ZeroDEV
// NoDir organization, FPSS, dataLRU), with stub core ports. The
// sparsemesi case runs a 1/64x directory in steady state: every store
// allocates into a full set and victimizes an entry held in M.
func BenchmarkTransaction(b *testing.B) {
	pre := config.TableI(microScale)
	zerodev := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	sharers := func(x *txBench, n int) func(a coher.Addr) {
		return func(a coher.Addr) {
			for c := 1; c <= n; c++ {
				x.read(c, a)
			}
		}
	}

	b.Run("zerodev/llc-hit-read", func(b *testing.B) {
		x := newTxBench(zerodev, txBatch)
		runTx(b, x, sharers(x, 2), func(a coher.Addr) { x.read(0, a) })
		if st := x.e.Stats(); st.LLCDataHits == 0 || st.NReadLLCHit == 0 {
			b.Fatal("no LLC-hit read")
		}
	})
	b.Run("zerodev/forward", func(b *testing.B) {
		x := newTxBench(zerodev, txBatch)
		runTx(b, x, func(a coher.Addr) { x.write(1, a) }, func(a coher.Addr) { x.read(0, a) })
		if st := x.e.Stats(); st.NReadForward < uint64(b.N) {
			b.Fatalf("%d forwarded reads in %d ops", st.NReadForward, b.N)
		}
	})
	b.Run("zerodev/getx-invalidate", func(b *testing.B) {
		x := newTxBench(zerodev, txBatch)
		runTx(b, x, sharers(x, 3), func(a coher.Addr) { x.write(0, a) })
		if st := x.e.Stats(); st.DemandInvals < 3*uint64(b.N) {
			b.Fatalf("%d demand invalidations in %d ops", st.DemandInvals, b.N)
		}
	})
	b.Run("zerodev/upgrade", func(b *testing.B) {
		x := newTxBench(zerodev, txBatch)
		runTx(b, x, func(a coher.Addr) {
			x.read(0, a)
			sharers(x, 2)(a)
		}, func(a coher.Addr) { x.upgrade(0, a) })
		if st := x.e.Stats(); st.Upgrades < uint64(b.N) {
			b.Fatalf("%d upgrades in %d ops", st.Upgrades, b.N)
		}
	})
	b.Run("sparsemesi/store-devs", func(b *testing.B) {
		spec := pre.Baseline(1.0/64, llc.NonInclusive)
		entries := pre.DirEntries(1.0 / 64)
		ring := 4 * entries
		x := newTxBench(spec, ring)
		next := 0
		store := func() {
			x.write((next+next/ring)%spec.Cores, txBase+coher.Addr(next%ring))
			next++
		}
		for i := 0; i < 2*ring; i++ {
			store()
		}
		before := x.e.Stats().DEVs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store()
		}
		b.StopTimer()
		if devs := x.e.Stats().DEVs - before; devs < uint64(b.N) {
			b.Fatalf("%d DEVs in %d stores", devs, b.N)
		}
	})
}
