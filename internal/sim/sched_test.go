package sim

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// scriptedAgent is a minimal Clocked whose clock advances by a scripted
// sequence of increments (zero increments included, so equal clocks —
// and therefore tie-breaks — occur constantly).
type scriptedAgent struct {
	id    int
	now   Cycle
	incs  []Cycle
	steps int
}

func (a *scriptedAgent) Now() Cycle { return a.now }
func (a *scriptedAgent) Done() bool { return a.steps >= len(a.incs) }
func (a *scriptedAgent) Step() {
	a.now += a.incs[a.steps]
	a.steps++
}

// linearDrive is the scheduler Drive replaced: scan every agent each
// step, pick the strictly smallest clock (first wins ties), step it.
// Kept verbatim as the reference implementation for the equivalence
// test below.
func linearDrive(agents []Clocked, hook func(step uint64, now Cycle) error) (Cycle, error) {
	var last Cycle
	var steps uint64
	for {
		min := MaxCycle
		var pick Clocked
		for _, a := range agents {
			if a.Done() {
				continue
			}
			if t := a.Now(); t < min {
				min = t
				pick = a
			}
		}
		if pick == nil {
			return last, nil
		}
		pick.Step()
		if t := pick.Now(); t > last {
			last = t
		}
		if hook != nil {
			steps++
			if err := hook(steps, pick.Now()); err != nil {
				return last, err
			}
		}
	}
}

// buildAgents synthesizes a randomized agent set from seed: a few to a
// few hundred agents, each with a scripted increment sequence skewed
// toward small values (including zero, to force clock ties) and
// occasionally starting at a shared non-zero clock (ties at step 0).
// Returns two structurally identical copies so the two schedulers can
// each mutate their own.
func buildAgents(seed uint64) (a, b []Clocked, ids map[Clocked]int) {
	rng := NewRNG(seed)
	n := 1 + int(rng.Intn(130))
	a = make([]Clocked, n)
	b = make([]Clocked, n)
	ids = make(map[Clocked]int, 2*n)
	for i := 0; i < n; i++ {
		var start Cycle
		if rng.Intn(4) == 0 {
			start = Cycle(rng.Intn(3)) // collide with neighbors
		}
		steps := int(rng.Intn(40)) // 0 steps = done at start
		incs := make([]Cycle, steps)
		for j := range incs {
			// 0 with probability 1/3: the stepped agent keeps its clock,
			// staying tied with anyone already at that time.
			incs[j] = Cycle(rng.Intn(3))
		}
		ai := &scriptedAgent{id: i, now: start, incs: incs}
		bi := &scriptedAgent{id: i, now: start, incs: append([]Cycle(nil), incs...)}
		a[i], b[i] = ai, bi
		ids[ai] = i
		ids[bi] = i
	}
	return a, b, ids
}

// TestHeapMatchesLinearScan drives randomized agent sets — clock ties
// included by construction — through both the heap scheduler (Drive)
// and the historical linear scan, across 1000 seeds, and requires the
// picked-agent sequences to be identical step for step.
func TestHeapMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 1000; seed++ {
		heapAgents, linAgents, ids := buildAgents(seed)
		var heapSeq, linSeq []int
		heapLast, err := driveLogged(heapAgents, ids, &heapSeq, Drive)
		if err != nil {
			t.Fatalf("seed %d: heap drive: %v", seed, err)
		}
		linLast, err := driveLogged(linAgents, ids, &linSeq, linearDrive)
		if err != nil {
			t.Fatalf("seed %d: linear drive: %v", seed, err)
		}
		if heapLast != linLast {
			t.Fatalf("seed %d: final clock mismatch: heap %d, linear %d", seed, heapLast, linLast)
		}
		if len(heapSeq) != len(linSeq) {
			t.Fatalf("seed %d: step count mismatch: heap %d, linear %d", seed, len(heapSeq), len(linSeq))
		}
		for i := range heapSeq {
			if heapSeq[i] != linSeq[i] {
				t.Fatalf("seed %d: schedulers diverge at step %d: heap picked agent %d, linear picked agent %d\nheap: %v\nlinear: %v",
					seed, i, heapSeq[i], linSeq[i], clip(heapSeq, i), clip(linSeq, i))
			}
		}
	}
}

// churnAgent advances to absolute target clocks: each step sets
// now = max(now, targets[steps]). Scripts built from shared rendezvous
// times make whole groups of agents land on identical clocks mid-run
// (injected ties), and a large jump followed by a run of equal targets
// models an agent that goes idle far in the future and re-arms there,
// stepping repeatedly at a constant clock while the rest of the
// population catches up. These are exactly the churn patterns the
// heap's (clock, original index) tie-break must reproduce.
type churnAgent struct {
	id      int
	now     Cycle
	targets []Cycle
	steps   int
}

func (a *churnAgent) Now() Cycle { return a.now }
func (a *churnAgent) Done() bool { return a.steps >= len(a.targets) }
func (a *churnAgent) Step() {
	if t := a.targets[a.steps]; t > a.now {
		a.now = t
	}
	a.steps++
}

// buildChurnAgents synthesizes agent sets around shared rendezvous
// clocks: every agent's script interleaves small local advances with
// jumps to rendezvous points common to the whole population, plus
// park-and-re-arm runs (several steps at one far clock).
func buildChurnAgents(seed uint64) (a, b []Clocked, ids map[Clocked]int) {
	rng := NewRNG(seed)
	n := 2 + int(rng.Intn(60))
	nrv := 1 + int(rng.Intn(6))
	rendezvous := make([]Cycle, nrv)
	t := Cycle(0)
	for i := range rendezvous {
		t += Cycle(5 + rng.Intn(50))
		rendezvous[i] = t
	}
	a = make([]Clocked, n)
	b = make([]Clocked, n)
	ids = make(map[Clocked]int, 2*n)
	for i := 0; i < n; i++ {
		var targets []Cycle
		now := Cycle(0)
		for _, rv := range rendezvous {
			// Local advance toward the rendezvous.
			for k := int(rng.Intn(4)); k > 0; k-- {
				now += Cycle(rng.Intn(3))
				targets = append(targets, now)
			}
			if rng.Intn(4) != 0 {
				// Jump to the shared rendezvous clock (identical clocks
				// injected mid-run), then idle there: re-arm with equal
				// targets so the agent keeps stepping at the same time.
				if rv > now {
					now = rv
				}
				for k := 1 + int(rng.Intn(4)); k > 0; k-- {
					targets = append(targets, now)
				}
			}
		}
		ai := &churnAgent{id: i, targets: targets}
		bi := &churnAgent{id: i, targets: append([]Cycle(nil), targets...)}
		a[i], b[i] = ai, bi
		ids[ai] = i
		ids[bi] = i
	}
	return a, b, ids
}

// TestHeapMatchesLinearScanChurn extends TestHeapMatchesLinearScan to
// rendezvous churn: groups of agents injected onto identical clocks
// mid-run and agents that park far ahead and re-arm, pinning the
// (clock, original index) tie-break under sustained ties.
func TestHeapMatchesLinearScanChurn(t *testing.T) {
	for seed := uint64(1); seed <= 500; seed++ {
		heapAgents, linAgents, ids := buildChurnAgents(seed)
		var heapSeq, linSeq []int
		heapLast, err := driveLogged(heapAgents, ids, &heapSeq, Drive)
		if err != nil {
			t.Fatalf("seed %d: heap drive: %v", seed, err)
		}
		linLast, err := driveLogged(linAgents, ids, &linSeq, linearDrive)
		if err != nil {
			t.Fatalf("seed %d: linear drive: %v", seed, err)
		}
		if heapLast != linLast {
			t.Fatalf("seed %d: final clock mismatch: heap %d, linear %d", seed, heapLast, linLast)
		}
		if len(heapSeq) != len(linSeq) {
			t.Fatalf("seed %d: step count mismatch: heap %d, linear %d", seed, len(heapSeq), len(linSeq))
		}
		for i := range heapSeq {
			if heapSeq[i] != linSeq[i] {
				t.Fatalf("seed %d: schedulers diverge at step %d: heap picked agent %d, linear picked agent %d\nheap: %v\nlinear: %v",
					seed, i, heapSeq[i], linSeq[i], clip(heapSeq, i), clip(linSeq, i))
			}
		}
	}
}

func clip(seq []int, i int) []int {
	lo, hi := i-3, i+4
	if lo < 0 {
		lo = 0
	}
	if hi > len(seq) {
		hi = len(seq)
	}
	return seq[lo:hi]
}

// loggingAgent wraps a Clocked and appends its id to *seq on every Step.
type loggingAgent struct {
	Clocked
	id  int
	seq *[]int
}

func (l *loggingAgent) Step() {
	*l.seq = append(*l.seq, l.id)
	l.Clocked.Step()
}

func driveLogged(agents []Clocked, ids map[Clocked]int, seq *[]int,
	drive func([]Clocked, func(uint64, Cycle) error) (Cycle, error)) (Cycle, error) {
	wrapped := make([]Clocked, len(agents))
	for i, a := range agents {
		wrapped[i] = &loggingAgent{Clocked: a, id: ids[a], seq: seq}
	}
	return drive(wrapped, nil)
}

// TestDriveHookStepNumbers pins the hook contract the heap rewrite must
// preserve: steps are numbered from 1 and `now` is the stepped agent's
// clock after the step.
func TestDriveHookStepNumbers(t *testing.T) {
	agents := []Clocked{
		&scriptedAgent{id: 0, incs: []Cycle{2, 2}},
		&scriptedAgent{id: 1, incs: []Cycle{3}},
	}
	var gotSteps []uint64
	var gotNows []Cycle
	last, err := Drive(agents, func(step uint64, now Cycle) error {
		gotSteps = append(gotSteps, step)
		gotNows = append(gotNows, now)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Fatalf("last = %d, want 4", last)
	}
	wantSteps := []uint64{1, 2, 3}
	wantNows := []Cycle{2, 3, 4} // agent0→2, agent1→3, agent0→4
	if fmt.Sprint(gotSteps) != fmt.Sprint(wantSteps) || fmt.Sprint(gotNows) != fmt.Sprint(wantNows) {
		t.Fatalf("hook saw steps %v nows %v, want %v %v", gotSteps, gotNows, wantSteps, wantNows)
	}
}

// TestContextHookPublishesEveryStep: a hang before the first CancelEvery
// boundary must still leave an exact step count behind for the watchdog.
func TestContextHookPublishesEveryStep(t *testing.T) {
	var steps atomic.Uint64
	hook := ContextHook(context.Background(), &steps, nil)
	for s := uint64(1); s <= 37; s++ {
		if err := hook(s, Cycle(s)); err != nil {
			t.Fatal(err)
		}
		if got := steps.Load(); got != s {
			t.Fatalf("after hook(%d): published steps = %d, want %d", s, got, s)
		}
	}
}

// BenchmarkDrive measures pure scheduler overhead (trivial agents) at
// the paper's core counts, heap vs. the replaced linear scan.
func BenchmarkDrive(b *testing.B) {
	for _, cores := range []int{8, 128, 512} {
		for _, impl := range []struct {
			name  string
			drive func([]Clocked, func(uint64, Cycle) error) (Cycle, error)
		}{{"heap", Drive}, {"linear", linearDrive}} {
			b.Run(fmt.Sprintf("%s/cores=%d", impl.name, cores), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					agents := make([]Clocked, cores)
					for c := range agents {
						incs := make([]Cycle, 200)
						for j := range incs {
							incs[j] = Cycle(1 + (c+j)%3)
						}
						agents[c] = &scriptedAgent{id: c, incs: incs}
					}
					b.StartTimer()
					if _, err := impl.drive(agents, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkContextHook justifies publishing steps on every call: the
// per-step cost of the atomic store is a few nanoseconds, noise next to
// a protocol transaction.
func BenchmarkContextHook(b *testing.B) {
	var steps atomic.Uint64
	hook := ContextHook(context.Background(), &steps, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hook(uint64(i+1), Cycle(i)); err != nil {
			b.Fatal(err)
		}
	}
}
