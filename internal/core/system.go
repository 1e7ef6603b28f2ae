package core

import (
	"context"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// SystemSpec assembles a complete single-socket CMP.
type SystemSpec struct {
	Cores int
	CPU   cpu.Params

	LLCBytes, LLCWays, LLCBanks int
	// LLCSets, when non-zero, overrides the capacity-derived per-bank set
	// count so associativity can be reduced at a fixed set count (the
	// Fig. 6 study).
	LLCSets int
	Mode    llc.Mode
	Repl    llc.Repl

	// Dir builds the sparse directory; the spec takes a constructor so
	// sweeps can instantiate a fresh directory per run.
	Dir func() directory.Directory

	// Backend selects the coherence-protocol backend (see
	// Params.Backend).
	Backend backend.ID
	Policy  DEPolicy

	DRAM   dram.Params
	NoC    noc.Params
	Uncore Params

	// WrapHome, when non-nil, decorates the home agent the engine talks
	// to (fault campaigns interpose message drop/duplication here).
	// System.Home always exposes the undecorated LocalHome.
	WrapHome func(Home) Home
}

// System is a runnable single-socket CMP: cores wired to a protocol
// engine wired to a local home agent.
type System struct {
	Spec   SystemSpec
	Engine *Engine
	Cores  []*cpu.Core
	Home   *LocalHome
}

// NewSystem wires a system; streams supplies one reference stream per
// core.
func NewSystem(spec SystemSpec, streams []cpu.Stream) *System {
	if len(streams) != spec.Cores {
		panic("core: stream count must equal core count")
	}
	var l *llc.LLC
	if spec.LLCSets > 0 {
		var err error
		l, err = llc.NewGeometry(spec.LLCSets, spec.LLCWays, spec.LLCBanks, spec.Mode, spec.Repl)
		if err != nil {
			panic(err)
		}
	} else {
		l = llc.MustNew(spec.LLCBytes, spec.LLCWays, spec.LLCBanks, spec.Mode, spec.Repl)
	}
	mesh := noc.MustNew(spec.NoC, spec.Cores, spec.LLCBanks)
	home := NewLocalHome(mem.MustNew(1, spec.Cores), dram.MustNew(spec.DRAM))
	up := spec.Uncore
	up.Cores = spec.Cores
	up.Backend = spec.Backend
	up.Policy = spec.Policy
	var h Home = home
	if spec.WrapHome != nil {
		h = spec.WrapHome(home)
	}
	eng := New(up, spec.Dir(), l, mesh, h)

	sys := &System{Spec: spec, Engine: eng, Home: home}
	ports := make([]CorePort, spec.Cores)
	for i := 0; i < spec.Cores; i++ {
		c := cpu.New(coher.CoreID(i), spec.CPU, streams[i], eng)
		sys.Cores = append(sys.Cores, c)
		ports[i] = c
	}
	eng.AttachCores(ports)
	return sys
}

// Run drives all cores to completion under min-clock interleaving and
// returns the parallel completion time.
func (s *System) Run() sim.Cycle {
	c, _ := s.RunCtx(nil, nil)
	return c
}

// RunCtx is Run with cooperative cancellation: the simulation checks
// ctx every sim.CancelEvery scheduler steps and aborts with its error,
// so a cancelled (or watchdog-timed-out) unit stops within a bounded
// number of steps instead of running to completion. steps, when
// non-nil, receives the running step count for hang diagnostics. Both
// may be nil, which is exactly Run.
func (s *System) RunCtx(ctx context.Context, steps *atomic.Uint64) (sim.Cycle, error) {
	agents := make([]sim.Clocked, len(s.Cores))
	for i, c := range s.Cores {
		agents[i] = c
	}
	return sim.Drive(agents, sim.ContextHook(ctx, steps, nil))
}
