package core_test

import (
	"bytes"
	"testing"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/sim"
)

// A fault entry point that refuses must change nothing: it returns false
// and leaves the protocol state and every counter as they were. The
// model checker's disabled ops rely on this. In every case core 0 has
// read X, whose entry then lives where the case says; Y is never
// touched.
func TestRefusedFaultEntryPointsChangeNothing(t *testing.T) {
	pre := config.TableI(microScale)
	const X, Y = coher.Addr(0x1000), coher.Addr(0x2000)
	var (
		zerodev   = pre.ZeroDEV(1.0/8, core.FPSS, llc.DataLRU, llc.NonInclusive)
		nodir     = pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
		inclusive = pre.ZeroDEV(0, core.SpillAll, llc.DataLRU, llc.Inclusive)
		sparse    = pre.Baseline(1.0/8, llc.NonInclusive)
	)
	for _, tc := range []struct {
		name  string
		spec  core.SystemSpec
		where string // where X's entry lives before the call
		call  func(e *core.Engine, now sim.Cycle) bool
	}{
		{"ForceDEWriteback on sparsemesi", sparse, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceDEWriteback(now, X) }},
		{"ForceDEWriteback with no housed entry", zerodev, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceDEWriteback(now, X) }},
		{"InjectInvalidation on an untracked block", zerodev, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.InjectInvalidation(now, Y) }},
		{"ForceDirectoryVictim on zerodev", zerodev, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceDirectoryVictim(now, X) }},
		{"ForceDirectoryVictim with no entry", sparse, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceDirectoryVictim(now, Y) }},
		{"ScrambleDirectoryNRU with no entry", sparse, core.LocDirectory,
			func(e *core.Engine, _ sim.Cycle) bool { return e.ScrambleDirectoryNRU(Y) }},
		{"ForceInclusionEviction on a non-inclusive LLC", nodir, core.LocLLCFused,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceInclusionEviction(now, X) }},
		{"ForceInclusionEviction on an unfused line", inclusive, core.LocLLCSpilled,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceInclusionEviction(now, X) }},
		{"ForceLLCEviction on an absent block", zerodev, core.LocDirectory,
			func(e *core.Engine, now sim.Cycle) bool { return e.ForceLLCEviction(now, Y) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, sc := microSystem(tc.spec)
			sc[0].load(X)
			sys.Cores[0].Step()
			if _, where, err := sys.Engine.LocateEntry(X); err != nil || where != tc.where {
				t.Fatalf("X's entry lives in %q (%v), want %q", where, err, tc.where)
			}
			state, stats := sys.AppendState(nil), *sys.Engine.Stats()
			if tc.call(sys.Engine, sys.Cores[0].Now()) {
				t.Fatal("the call was not refused")
			}
			if !bytes.Equal(sys.AppendState(nil), state) {
				t.Fatal("the refused call changed the protocol state")
			}
			if *sys.Engine.Stats() != stats {
				t.Fatalf("the refused call changed the counters:\n%+v\nwant\n%+v", *sys.Engine.Stats(), stats)
			}
		})
	}
}
