package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/noc"
	"repro/internal/sim"
)

func TestSpeedupAndWeightedSpeedup(t *testing.T) {
	base := Run{Cycles: 2000, CoreCycles: []sim.Cycle{2000, 1000}}
	x := Run{Cycles: 1000, CoreCycles: []sim.Cycle{1000, 1000}}
	if got := Speedup(base, x); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := WeightedSpeedup(base, x); got != 1.5 {
		t.Fatalf("WeightedSpeedup = %v", got)
	}
	if Speedup(base, Run{}) != 0 || WeightedSpeedup(base, Run{}) != 0 {
		t.Fatal("degenerate runs must yield 0")
	}
}

func TestNormalizations(t *testing.T) {
	var bt, xt noc.Traffic
	bt.Bytes[0] = 100
	xt.Bytes[0] = 80
	base := Run{Traffic: bt, CPU: cpu.Stats{L2Misses: 50, Retired: 10000}}
	x := Run{Traffic: xt, CPU: cpu.Stats{L2Misses: 40, Retired: 10000}}
	if got := NormTraffic(base, x); got != 0.8 {
		t.Fatalf("NormTraffic = %v", got)
	}
	if got := NormMisses(base, x); got != 0.8 {
		t.Fatalf("NormMisses = %v", got)
	}
	if got := base.MPKI(); got != 5 {
		t.Fatalf("MPKI = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("GeoMean = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if Min([]float64{3, 1, 2}) != 1 || Max([]float64{3, 1, 2}) != 3 {
		t.Fatal("Min/Max wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "b"}}
	tb.AddRow("x", "1")
	tb.AddF("y", 0.5)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "x", "0.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
