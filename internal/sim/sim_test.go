package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should diverge immediately")
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork(1)
	r2 := NewRNG(7)
	_ = r2.Fork(1)
	f2 := r2.Fork(2)
	same := true
	for i := 0; i < 64; i++ {
		if f1.Uint64() != f2.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forks with different labels should produce different streams")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestZipfProperties(t *testing.T) {
	r := NewRNG(5)
	f := func(n uint16, skew float64) bool {
		nn := int(n%1000) + 1
		s := skew
		if s < 0 {
			s = -s
		}
		z := NewZipfGen(nn, s)
		for i := 0; i < 20; i++ {
			v := z.Draw(r)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Skewed draws concentrate: index 0..9 should receive far more than
	// 10/1000 of the mass at skew 1.
	hits := 0
	const draws = 20000
	z := NewZipfGen(1000, 1)
	for i := 0; i < draws; i++ {
		if z.Draw(r) < 10 {
			hits++
		}
	}
	if frac := float64(hits) / draws; frac < 0.15 {
		t.Fatalf("Zipf(1000, 1) top-10 mass = %.3f, want heavy head", frac)
	}
}

type fakeAgent struct {
	now   Cycle
	step  Cycle
	left  int
	trace *[]int
	id    int
}

func (f *fakeAgent) Now() Cycle { return f.now }
func (f *fakeAgent) Done() bool { return f.left == 0 }
func (f *fakeAgent) Step() {
	*f.trace = append(*f.trace, f.id)
	f.now += f.step
	f.left--
}

func TestRunAllInterleavesByClock(t *testing.T) {
	var trace []int
	fast := &fakeAgent{step: 1, left: 4, trace: &trace, id: 0}
	slow := &fakeAgent{step: 10, left: 2, trace: &trace, id: 1}
	last, err := Drive([]Clocked{fast, slow}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// fast runs 4 steps (clock 1..4) before slow's second step at 10.
	want := []int{0, 1, 0, 0, 0, 1}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if last != 20 {
		t.Fatalf("completion = %d, want 20", last)
	}
}
