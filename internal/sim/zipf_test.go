package sim_test

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// gridTop is the largest 53-bit uniform a draw can produce, in units of
// 2^-53; a draw's bits are its grid point shifted left by 11.
const gridTop = 1<<53 - 1

// transitionWindow is how many grid points on each side of an index
// transition the lockstep test checks.
const transitionWindow = 64

// firstAtLeast returns the smallest grid point near est whose exact
// index is at least idx, by widening a bracket around est and then
// bisecting it.
func firstAtLeast(at func(uint64) int, idx int, est float64) uint64 {
	g := uint64(min(max(est, 0), gridTop))
	lo, hi := uint64(0), uint64(gridTop)
	for d := uint64(8); d < gridTop; d *= 8 {
		if l := g - min(g, d); at(l) < idx {
			lo = l
			break
		}
	}
	for d := uint64(8); d < gridTop; d *= 8 {
		if h := min(g+d, gridTop); at(h) >= idx {
			hi = h
			break
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; at(mid) < idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// transitionMismatches walks every stride-th index transition of the
// shape's generator and counts the points where an index differs from
// the exact reference: Index's on the two grid points that straddle the
// transition, and the fast path's, guarded with the given margin, on
// the transitionWindow points either side wherever the guard accepts.
// Points the guard rejects take the exact expression.
func transitionMismatches(sh workload.Shape, margin float64, stride int) (points, bad int) {
	z := sim.NewZipfGen(sh.N, sh.Skew)
	ref := sim.NewExactZipf(sh.N, sh.Skew)
	at := func(g uint64) int { return ref.Index(g << 11) }
	p := 1 - sh.Skew
	powT := math.Pow(float64(sh.N), p) - 1
	// Index k-1 begins where A = w^(1/p) reaches k, i.e. w = k^p.
	for k := 2; k < sh.N; k += stride {
		est := (math.Pow(float64(k), p) - 1) / powT * (1 << 53)
		g := firstAtLeast(at, k-1, est)
		for _, q := range []uint64{g - 1, g} {
			if z.Index(q<<11) != at(q) {
				bad++
			}
		}
		for q := g - min(g, transitionWindow); q <= min(g+transitionWindow, gridTop); q++ {
			points++
			i, ok := z.FastIndex(q<<11, margin)
			if ok && min(max(i, 0), sh.N-1) != at(q) {
				bad++
			}
		}
	}
	return points, bad
}

// randomMismatches compares Index with the exact reference on the given
// number of random draws and counts the disagreements and the draws
// whose guard fell back to the exact expression.
func randomMismatches(sh workload.Shape, draws int, seed uint64) (bad, fallbacks int) {
	z := sim.NewZipfGen(sh.N, sh.Skew)
	ref := sim.NewExactZipf(sh.N, sh.Skew)
	r := sim.NewRNG(seed)
	for d := 0; d < draws; d++ {
		b := r.Uint64()
		if z.Index(b) != ref.Index(b) {
			bad++
		}
		if _, ok := z.FastIndex(b, sim.FastMargin); !ok {
			fallbacks++
		}
	}
	return bad, fallbacks
}

// TestZipfDrawExact proves the fast path exact on the domain it serves:
// every shape the workload package draws from at the benchmark's scale
// 8 and the quick goldens' scale 32, at every index transition ± 64
// grid points of the 53-bit uniform, plus random draws; and every 64th
// transition of the rest of the scale ladder (of every scale with
// -short). A margin of 2^-40, below the approximation's error, must
// fail the same check: without that the check could not tell a sound
// guard from an unsound one.
func TestZipfDrawExact(t *testing.T) {
	full := 1
	if testing.Short() {
		full = 64
	}
	for _, c := range []struct{ scale, stride int }{
		{8, full}, {32, full}, {1, 64}, {2, 64}, {4, 64}, {16, 64}, {64, 64},
	} {
		for i, sh := range workload.Shapes(c.scale) {
			if points, bad := transitionMismatches(sh, sim.FastMargin, c.stride); bad != 0 {
				t.Errorf("scale %d %+v: fast path differs at %d of %d points near index transitions", c.scale, sh, bad, points)
			}
			if bad, _ := randomMismatches(sh, 4000, uint64(c.scale)<<32|uint64(i)); bad != 0 {
				t.Errorf("scale %d %+v: fast path differs on %d of 4000 random draws", c.scale, sh, bad)
			}
		}
	}
	for _, sh := range []workload.Shape{{N: 6144, Skew: 1.05}, {N: 4096, Skew: 0.85}} {
		if points, bad := transitionMismatches(sh, 0x1p-40, 1); bad == 0 {
			t.Errorf("%+v: a 2^-40 margin passes all %d points near index transitions", sh, points)
		}
	}
}
