package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/llc"
)

// TestPoolOrdering checks the engine's core contract: futures resolve to
// their own job's result regardless of scheduling, so waiting in
// submission order reassembles the serial sequence.
func TestPoolOrdering(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(nil, workers, nil, "order")
		var futs []*Future[int]
		for i := 0; i < 100; i++ {
			i := i
			futs = append(futs, Submit(p, func(context.Context) int { return i * i }))
		}
		for i, f := range futs {
			if got, err := f.Result(); err != nil || got != i*i {
				t.Fatalf("workers=%d: job %d returned %d, %v, want %d, nil", workers, i, got, err, i*i)
			}
		}
		if tm := p.timing(); tm.Jobs != 100 {
			t.Fatalf("workers=%d: timing counted %d jobs, want 100", workers, tm.Jobs)
		}
	}
}

// TestPoolConcurrencyBound verifies the semaphore actually bounds how
// many jobs run at once.
func TestPoolConcurrencyBound(t *testing.T) {
	const workers = 3
	p := NewPool(nil, workers, nil, "bound")
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	var futs []*Future[struct{}]
	for i := 0; i < 32; i++ {
		futs = append(futs, Submit(p, func(context.Context) struct{} {
			n := inFlight.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-gate
			inFlight.Add(-1)
			return struct{}{}
		}))
	}
	close(gate)
	for i, f := range futs {
		if _, err := f.Result(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", got, workers)
	}
}

// TestSerialSubmitRunsInline pins the Workers<=1 guarantee: the job has
// already executed, on the calling goroutine, when Submit returns.
func TestSerialSubmitRunsInline(t *testing.T) {
	p := NewPool(nil, 1, nil, "serial")
	ran := false
	f := Submit(p, func(context.Context) bool { ran = true; return true })
	if !ran {
		t.Fatal("serial Submit returned before running the job")
	}
	if _, err := f.Result(); err != nil {
		t.Fatalf("serial job: %v", err)
	}
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
}

// TestSplitCancelled: a run error's cancelled jobs are counted once each
// through any wrapping and joining, every other failure keeps its text,
// a bare context error is dropped, and an error with no cancellation
// comes back unchanged.
func TestSplitCancelled(t *testing.T) {
	c1 := &JobError{Unit: "a/base", Seq: 1, Err: context.Canceled, Attempts: 1}
	c2 := &JobError{Unit: "b/base", Seq: 2, Err: fmt.Errorf("sim: aborted: %w", context.Canceled), Attempts: 1}
	panicked := &JobError{Unit: "c/base", Seq: 3, Panic: "boom", Attempts: 1}
	timedOut := &JobError{Unit: "d/base", Seq: 4, Err: ErrJobTimeout, Timeout: true, Attempts: 1}

	if n, rest := SplitCancelled(nil); n != 0 || rest != nil {
		t.Errorf("nil: %d cancelled, rest %v", n, rest)
	}
	real := errors.Join(fmt.Errorf("2 of 5 jobs failed; first: %w", panicked), timedOut)
	if n, rest := SplitCancelled(real); n != 0 || rest != real {
		t.Errorf("no cancellation: %d cancelled, rest %v, want 0 and the error itself", n, rest)
	}
	mixed := errors.Join(fmt.Errorf("4 of 5 jobs failed; first: %w", c1), panicked, c2, timedOut,
		errors.Join(c1, c2), fmt.Errorf("run: %w", context.Canceled))
	n, rest := SplitCancelled(mixed)
	if want := errors.Join(panicked, timedOut).Error(); n != 2 || rest == nil || rest.Error() != want {
		t.Errorf("mixed: %d cancelled, rest %v; want 2 and %q", n, rest, want)
	}
	if n, rest := SplitCancelled(errors.Join(c1, c2)); n != 2 || rest != nil {
		t.Errorf("all cancelled: %d cancelled, rest %v; want 2 and nil", n, rest)
	}
}

// TestParallelSweepMatchesSerial is the short race-detector tier: it
// drives the real sweep path (workload synthesis, full simulations,
// stats collection) through a parallel pool and cross-checks every
// speedup and collected run against the serial sweep. Run it with
// `go test -race -short ./internal/harness` to shake out shared-state
// races; heavier determinism checks live in determinism_test.go.
func TestParallelSweepMatchesSerial(t *testing.T) {
	o := tinyOptions()
	o.Accesses = 1500
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"1/8x", pre.Baseline(1.0/8, llc.NonInclusive)},
		{"1/32x", pre.Baseline(1.0/32, llc.NonInclusive)},
	}
	serial, parallel := o, o
	serial.Workers = 1
	parallel.Workers = 4
	parallel.pool = NewPool(nil, parallel.Workers, nil, "sweep")
	rs := sweepGroup(serial, "FFTW", pre.Baseline(1, llc.NonInclusive), cfgs)
	rp := sweepGroup(parallel, "FFTW", pre.Baseline(1, llc.NonInclusive), cfgs)
	if !reflect.DeepEqual(rs.speedups, rp.speedups) {
		t.Fatalf("parallel speedups %v differ from serial %v", rp.speedups, rs.speedups)
	}
	if !reflect.DeepEqual(rs.runs, rp.runs) {
		t.Fatal("parallel collected runs differ from serial")
	}
}

// TestPoolRecoversPanics pins the crash-resilience core: a panicking
// job resolves its own future to a typed *JobError, siblings are
// untouched, failures come back in submission order, and the pool's
// summary reports the run as failed. A job returning an error runs
// exactly once and is recorded like a panic.
func TestPoolRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(nil, workers, nil, "crash")
		ok1 := SubmitJob(p, "healthy-a", func(context.Context) (int, error) { return 7, nil })
		bad := SubmitJob(p, "doomed", func(context.Context) (int, error) { panic("injected panic") })
		ok2 := SubmitJob(p, "healthy-b", func(context.Context) (int, error) { return 9, nil })
		if v, err := ok1.Result(); v != 7 || err != nil {
			t.Fatalf("workers=%d: sibling a got (%d, %v)", workers, v, err)
		}
		if v, err := ok2.Result(); v != 9 || err != nil {
			t.Fatalf("workers=%d: sibling b got (%d, %v)", workers, v, err)
		}
		_, err := bad.Result()
		var je *JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: panic surfaced as %T (%v), want *JobError", workers, err, err)
		}
		if je.Unit != "doomed" || !strings.Contains(je.Panic, "injected panic") || je.Attempts != 1 {
			t.Fatalf("workers=%d: bad JobError: %+v", workers, je)
		}
		fails := p.Failures()
		if len(fails) != 1 || fails[0].Unit != "doomed" {
			t.Fatalf("workers=%d: Failures() = %+v", workers, fails)
		}
		sum := p.FailureSummary()
		if sum == nil || !strings.Contains(sum.Error(), "1 of 3 jobs failed") {
			t.Fatalf("workers=%d: FailureSummary() = %v", workers, sum)
		}
		if tm := p.timing(); tm.Failed != 1 {
			t.Fatalf("workers=%d: timing.Failed = %d", workers, tm.Failed)
		}

		var calls atomic.Int32
		boom := errors.New("deterministic failure")
		g := SubmitJob(p, "failing", func(context.Context) (int, error) { calls.Add(1); return 0, boom })
		if _, err := g.Result(); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: returned error not propagated: %v", workers, err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("workers=%d: erroring job ran %d times, want 1", workers, n)
		}
		if fails := p.Failures(); len(fails) != 2 || fails[1].Unit != "failing" || fails[1].Attempts != 1 {
			t.Fatalf("workers=%d: Failures() after the erroring job = %+v", workers, fails)
		}
	}
}

// TestPoolReplayBundles checks the crash artifact: armed with a crash
// directory the pool writes a deterministic-named JSON bundle carrying
// the replay metadata and stack; without a directory it writes nothing
// but still types the failure.
func TestPoolReplayBundles(t *testing.T) {
	dir := t.TempDir()
	p := NewPool(nil, 1, nil, "bundle")
	meta := ReplayMeta{Experiment: "fig9/x", Scale: 8, Accesses: 100, Seed: 3, Workers: 2}
	p.EnableRecovery(meta, dir)
	f := SubmitJob(p, "unit/cfg", func(context.Context) (int, error) { panic("kaboom") })
	_, err := f.Result()
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("got %T: %v", err, err)
	}
	want := filepath.Join(dir, "fig9-x_unit-cfg_j001_a1.json")
	if je.ReplayPath != want {
		t.Fatalf("ReplayPath = %q, want %q", je.ReplayPath, want)
	}
	raw, rerr := os.ReadFile(want)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, field := range []string{`"experiment": "fig9/x"`, `"seed": 3`, `"panic": "kaboom"`, "goroutine"} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("bundle missing %q:\n%s", field, raw)
		}
	}
	if je.Meta != meta {
		t.Fatalf("JobError.Meta = %+v, want %+v", je.Meta, meta)
	}
	if msg := err.Error(); !strings.Contains(msg, "replay bundle: "+want) || je.Attempts != 1 {
		t.Fatalf("a single panic must name its one bundle after one attempt: %q", msg)
	}
	if got, derr := DecodeBundle(bytes.NewReader(raw)); derr != nil || got != meta {
		t.Fatalf("bundle does not decode back to its meta: %+v, %v", got, derr)
	}

	q := NewPool(nil, 1, nil, "nobundle")
	g := SubmitJob(q, "u", func(context.Context) (int, error) { panic("dry") })
	_, err = g.Result()
	if !errors.As(err, &je) || je.ReplayPath != "" {
		t.Fatalf("unarmed pool wrote a bundle: %v", err)
	}
}

// TestExecuteProgressAndTiming checks the observability surface: Execute
// reports the experiment ID and job counts, and progress lines go to the
// configured writer, never to the experiment output.
func TestExecuteProgressAndTiming(t *testing.T) {
	e, err := Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Accesses = 1000
	o.Workers = 4
	var progress, out bytes.Buffer
	o.Progress = &progress
	tm, err := e.Execute(context.Background(), o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Experiment != "fig4" || tm.Workers != 4 || tm.Jobs == 0 || tm.Wall <= 0 {
		t.Fatalf("bad timing summary: %+v", tm)
	}
	var line strings.Builder
	tm.Fprint(&line)
	if !strings.Contains(line.String(), "fig4") || !strings.Contains(line.String(), fmt.Sprintf("%d jobs", tm.Jobs)) {
		t.Fatalf("timing line %q missing fields", line.String())
	}
	if strings.Contains(out.String(), "jobs") {
		t.Fatal("progress leaked into experiment output")
	}
}
