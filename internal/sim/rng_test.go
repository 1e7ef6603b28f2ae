package sim

import (
	"fmt"
	"math"
	"testing"
)

// Zipf is the exact reference ZipfGen is held to: the inverse CDF over
// [0, n) with skew s, every transcendental evaluated on every draw. It
// consumes what ZipfGen.Draw consumes: one output, none when n <= 1.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	if s == 1 {
		// CDF ~ ln(1+x)/ln(1+n)
		x := math.Exp(r.Float64()*math.Log(float64(n))) - 1
		i := int(x)
		if i >= n {
			i = n - 1
		}
		return i
	}
	return NewExactZipf(n, s).Index(r.Uint64())
}

// ExactZipf is the reference's inverse CDF for s > 0, s != 1, with
// n^(1-s) and 1/(1-s) computed once so that a test can evaluate it at
// many points.
type ExactZipf struct {
	n          int
	powT, invP float64
}

// NewExactZipf computes the reference's constants for n and s.
func NewExactZipf(n int, s float64) ExactZipf {
	// CDF ~ (x^(1-s)-1)/(n^(1-s)-1) for s != 1.
	p := 1 - s
	return ExactZipf{n: n, powT: math.Pow(float64(n), p) - 1, invP: 1 / p}
}

// Index returns the reference's index for a draw's bits.
func (e ExactZipf) Index(bits uint64) int {
	x := math.Pow(unit(bits)*e.powT+1, e.invP) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= e.n {
		i = e.n - 1
	}
	return i
}

// TestZipfGenMatchesZipf pins ZipfGen to the reference: for any
// generator state, Draw returns the same index as Zipf(n, s) and leaves
// the RNG stream in the same state. Goldens across the repo depend on
// this bit-for-bit, so the comparison is exact equality over a range of
// skews (including the s == 1 special case, the s <= 0 uniform
// degenerate, and s = 0.99, whose |1/(1-s)| = 100 is near the edge of
// the fast path's error bound) and sizes.
func TestZipfGenMatchesZipf(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 4096, 1 << 20} {
		for _, s := range []float64{-1, 0, 0.5, 0.99, 1, 1.2, 2.5} {
			gen := NewZipfGen(n, s)
			ra, rb := NewRNG(0xfeed), NewRNG(0xfeed)
			for i := 0; i < 2000; i++ {
				want := ra.Zipf(n, s)
				got := gen.Draw(rb)
				if got != want {
					t.Fatalf("n=%d s=%v draw %d: Draw=%d Zipf=%d", n, s, i, got, want)
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("n=%d s=%v: streams diverged after 2000 draws", n, s)
			}
		}
	}
}

// TestZipfFastPathEnabled pins which generators take the fast path: the
// error bound admits every skew the catalog uses and s = 0.99, and
// refuses skews so near 1 that |1/(1-s)| outgrows the margin.
func TestZipfFastPathEnabled(t *testing.T) {
	for _, c := range []struct {
		n    int
		s    float64
		want zipfMode
	}{
		{6144, 1.05, zipfFast}, {4096, 0.85, zipfFast}, {192, 1.3, zipfFast},
		{128, 0.5, zipfFast}, {180224, 0.35, zipfFast}, {1 << 20, 1.5, zipfFast},
		{1 << 20, 0.99, zipfFast}, {1 << 20, 2.5, zipfFast},
		{1 << 20, 0.995, zipfPow}, {4096, 1.001, zipfPow},
		{4096, 1, zipfLog}, {4096, 0, zipfUniform}, {1, 1.05, zipfConst},
	} {
		if got := NewZipfGen(c.n, c.s).mode; got != c.want {
			t.Errorf("NewZipfGen(%d, %v).mode = %d, want %d", c.n, c.s, got, c.want)
		}
	}
}

// TestZipfGenAllocatesNothing: building a generator and drawing from it
// touch no heap.
func TestZipfGenAllocatesNothing(t *testing.T) {
	r := NewRNG(1)
	if n := testing.AllocsPerRun(100, func() {
		z := NewZipfGen(6144, 1.05)
		z.Draw(r)
	}); n != 0 {
		t.Fatalf("NewZipfGen+Draw allocates %v times", n)
	}
}

var sinkIndex int

// BenchmarkZipfDraw times one draw on the benchmark cells' shapes
// (zdev8-freqmine's four, a TPC-H private region and a server shared
// region at scale 8) three ways: the reference Zipf, the exact
// expression with the transcendentals of (n, s) hoisted (a generator
// with the fast path switched off), and Draw.
func BenchmarkZipfDraw(b *testing.B) {
	for _, sh := range []struct {
		n int
		s float64
	}{{6144, 1.05}, {4096, 0.85}, {192, 1.3}, {128, 0.5}, {24576, 1.05}, {81920, 1.25}} {
		exact := NewZipfGen(sh.n, sh.s)
		exact.mode = zipfPow
		fast := NewZipfGen(sh.n, sh.s)
		name := fmt.Sprintf("%d-%g", sh.n, sh.s)
		b.Run("ref/"+name, func(b *testing.B) {
			r := NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkIndex += r.Zipf(sh.n, sh.s)
			}
		})
		b.Run("exact/"+name, func(b *testing.B) {
			r := NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkIndex += exact.Draw(r)
			}
		})
		b.Run("draw/"+name, func(b *testing.B) {
			r := NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkIndex += fast.Draw(r)
			}
		})
	}
}
