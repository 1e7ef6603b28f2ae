package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/llc"
)

func TestSweepGroupShapes(t *testing.T) {
	o := tinyOptions()
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"same", pre.Baseline(1, llc.NonInclusive)},
		{"small", pre.Baseline(1.0/32, llc.NonInclusive)},
	}
	r := sweepGroup(o, "FFTW", pre.Baseline(1, llc.NonInclusive), cfgs)
	if len(r.units) == 0 {
		t.Fatal("no units")
	}
	for ci := range cfgs {
		if len(r.speedups[ci]) != len(r.units) || len(r.runs[ci]) != len(r.units) {
			t.Fatalf("config %d: %d speedups, %d runs, %d units",
				ci, len(r.speedups[ci]), len(r.runs[ci]), len(r.units))
		}
	}
	// The identical configuration must measure exactly 1.0 against its
	// own base (deterministic replay), and the tiny directory must not
	// be faster than it.
	if got := r.geo(0); got != 1.0 {
		t.Fatalf("self speedup = %v, want exactly 1 (determinism)", got)
	}
	if r.geo(1) > r.geo(0)+1e-9 {
		t.Fatalf("1/32x directory (%v) outperformed 1x (%v)", r.geo(1), r.geo(0))
	}
	if r.min(0) != 1.0 {
		t.Fatalf("min self speedup = %v", r.min(0))
	}
}
