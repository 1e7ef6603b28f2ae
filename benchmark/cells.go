package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/workload"
)

// scale is the capacity divisor every workload runs at (the harness
// default).
const scale = 8

// A workload is one simulated cell: a system organization from the
// config presets and a multithreaded stream from workload.Threads. Each
// stresses a different step-path layer (README.md has the reasons).
type workloadDef struct {
	name    string
	app     string
	perCore int // accesses per core at full size
	// zeroDEV marks cells whose backend guarantees no directory eviction
	// victims; a DEV there fails the run.
	zeroDEV bool
	layout  func() (layout, error)
}

// layout is a cell's organization: one socket built with core.NewSystem,
// or several glued by socket.New when sockets is non-nil.
type layout struct {
	spec    core.SystemSpec
	sockets *socket.Params
	cores   int // total
}

var workloads = []*workloadDef{
	{
		name:    "zdev8-freqmine",
		app:     "freqmine",
		perCore: 200_000,
		zeroDEV: true,
		layout: func() (layout, error) {
			pre := config.TableI(scale)
			return layout{spec: pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive), cores: pre.Cores}, nil
		},
	},
	{
		name:    "mesi128-tpch",
		app:     "TPC-H",
		perCore: 10_000,
		layout: func() (layout, error) {
			pre := config.Server128(scale)
			spec, err := pre.ForBackend(backend.SparseMESI, 1.0/8)
			return layout{spec: spec, cores: pre.Cores}, err
		},
	},
	{
		name:    "zdev4s-canneal",
		app:     "canneal",
		perCore: 50_000,
		zeroDEV: true,
		layout: func() (layout, error) {
			pre := config.TableI(scale)
			p := socket.DefaultParams(4, 65536/scale*8)
			return layout{spec: pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive), sockets: &p, cores: 4 * pre.Cores}, nil
		},
	},
	{
		name:    "zdev1024-canneal",
		app:     "canneal",
		perCore: 1_500,
		zeroDEV: true,
		layout: func() (layout, error) {
			g, err := config.MultiSocket(1024, 4, scale)
			if err != nil {
				return layout{}, err
			}
			spec, err := g.Preset.ForBackend(backend.ZeroDEV, 0)
			if err != nil {
				return layout{}, err
			}
			spec.CPU.StatInterval = 1000
			p := socket.DefaultParams(g.Sockets, 65536/scale*8)
			p.HomeGroups = g.HomeGroups
			p.IntraGroupCycles = 40
			return layout{spec: spec, sockets: &p, cores: g.TotalCores()}, nil
		},
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// streams synthesizes the cell's reference streams; div shrinks the
// per-core length (the smoke test runs at 1/100).
func (w *workloadDef) streams(cores, div int, seed uint64) ([]cpu.Stream, error) {
	prof, err := workload.Get(w.app)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	n := w.perCore / div
	if n < 1 {
		n = 1
	}
	return workload.Threads(prof, cores, n, scale, seed), nil
}

// cell is a built system of either shape.
type cell struct {
	single  *core.System
	multi   *socket.System
	engines []*core.Engine
	cores   []*cpu.Core  // socket-major
	traced  []tracedCore // the cores' decorators, when built with a tracer
}

// build wires the cell through the public constructors. A non-nil
// tracer decorates every layer seam.
func build(lay layout, streams []cpu.Stream, t *tracer) (*cell, error) {
	spec := lay.spec
	var tcs []tracedCore
	if t != nil {
		tcs = make([]tracedCore, len(streams))
		for i, s := range streams {
			tcs[i] = tracedCore{t: t, stream: s}
			streams[i] = &tcs[i]
		}
		dir := spec.Dir
		spec.Dir = func() directory.Directory { return &tracedDir{inner: dir(), t: t} }
	}
	c := &cell{}
	if lay.sockets == nil {
		if t != nil {
			spec.WrapHome = func(h core.Home) core.Home { return &tracedHome{inner: h, t: t} }
		}
		c.single = core.NewSystem(spec, streams)
		c.engines = []*core.Engine{c.single.Engine}
		c.cores = c.single.Cores
	} else {
		p := *lay.sockets
		if t != nil {
			p.WrapHome = func(_ int, h core.Home) core.Home { return &tracedHome{inner: h, t: t} }
		}
		sys, err := socket.New(p, spec, streams)
		if err != nil {
			return nil, err
		}
		c.multi = sys
		for _, s := range sys.Sockets {
			c.engines = append(c.engines, s.Engine)
			c.cores = append(c.cores, s.Cores...)
		}
	}
	if t != nil {
		per := len(c.cores) / len(c.engines)
		for s, eng := range c.engines {
			ports := make([]core.CorePort, per)
			for i := range ports {
				tc := &tcs[s*per+i]
				tc.core, tc.uncore = c.cores[s*per+i], eng
				tc.core.Attach(tc)
				ports[i] = tc
			}
			eng.AttachCores(ports)
		}
		c.traced = tcs
	}
	return c, nil
}

// run is the harness's serial path.
func (c *cell) run(ctx context.Context, steps *atomic.Uint64) (sim.Cycle, error) {
	if c.single != nil {
		return c.single.RunCtx(ctx, steps)
	}
	return c.multi.RunCtx(ctx, steps)
}

// runTraced is the same loop as run over the decorated agents, inside
// the root sim.Drive span.
func (c *cell) runTraced(ctx context.Context, steps *atomic.Uint64, t *tracer) (sim.Cycle, error) {
	agents := make([]sim.Clocked, len(c.traced))
	for i := range c.traced {
		agents[i] = &c.traced[i]
	}
	t.active = true
	t.push(spanDrive)
	cycles, err := sim.Drive(agents, sim.ContextHook(ctx, steps, nil))
	t.pop()
	t.active = false
	return cycles, err
}

func (c *cell) checkInvariants() error {
	if c.single != nil {
		return c.single.Engine.CheckInvariants()
	}
	return c.multi.CheckInvariants()
}

// counters are the simulated results of one run, summed over cores and
// sockets, with the digest over the unsummed values.
type counters struct {
	cycles  sim.Cycle
	cpu     cpu.Stats
	eng     core.Stats
	traffic noc.Traffic
	dram    dram.Stats
	socket  socket.Stats
	dirPeak int
	metaHW  int
	coarse  uint64
	digest  uint64
}

func (c *cell) counters(cycles sim.Cycle) counters {
	k := counters{cycles: cycles}
	var m *mem.Memory
	if c.single != nil {
		k.dram = c.single.Home.DRAM().Stats()
		m = c.single.Home.Mem()
	} else {
		k.dram = c.multi.DRAM().Stats()
		k.socket = c.multi.Stats()
		m = c.multi.Mem()
	}
	k.metaHW = m.MetaHighWater()
	k.coarse = m.CoarseSegmentWrites()

	h := fnv.New64a()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err) // every value hashed is fixed-size
		}
	}
	put(uint64(cycles))
	for _, cc := range c.cores {
		s := cc.Stats()
		put(s)
		k.cpu.Loads += s.Loads
		k.cpu.Stores += s.Stores
		k.cpu.Ifetches += s.Ifetches
		k.cpu.L1DMisses += s.L1DMisses
		k.cpu.L1IMisses += s.L1IMisses
		k.cpu.L2Misses += s.L2Misses
		k.cpu.Upgrades += s.Upgrades
		k.cpu.Retired += s.Retired
		k.cpu.InvalidationsReceived += s.InvalidationsReceived
	}
	for _, e := range c.engines {
		put(e.Stats())
		put(e.Mesh().Traffic())
		k.eng.Add(e.Stats())
		k.traffic.Add(e.Mesh().Traffic())
		if p, ok := e.Directory().(interface{ Peak() int }); ok {
			k.dirPeak += p.Peak()
		}
	}
	put(k.dram)
	put(k.socket)
	k.digest = h.Sum64()
	return k
}

// accesses is the simulated loads + stores + ifetches.
func (k *counters) accesses() uint64 { return k.cpu.Loads + k.cpu.Stores + k.cpu.Ifetches }
