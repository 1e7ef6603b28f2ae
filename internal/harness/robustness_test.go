package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// testKey is a fixed run shape for checkpoint tests.
func testKey() CheckpointKey {
	return CheckpointKey{Kind: "run", IDs: []string{"fig4"}, Scale: 32, Accesses: 4000, Seed: 1, Quick: true}
}

// TestKillAndResumeByteIdentical is the tentpole acceptance test: a run
// interrupted mid-flight, checkpointed, round-tripped through disk, and
// resumed must produce output byte-identical to an uninterrupted run —
// at 1 worker and at 8, resuming at a different worker count than the
// interrupted run used. fig4 resumes single-socket cells, multisocket
// four-socket ones.
func TestKillAndResumeByteIdentical(t *testing.T) {
	o := tinyOptions()
	o.Accesses = 1000
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, id := range []string{"fig4", "multisocket"} {
				id := id
				t.Run(id, func(t *testing.T) {
					e, err := Get(id)
					if err != nil {
						t.Fatal(err)
					}
					key := testKey()
					key.IDs = []string{id}
					o := o
					o.Workers = workers

					// Reference: one uninterrupted run.
					var want bytes.Buffer
					if _, err := e.Execute(context.Background(), o, &want); err != nil {
						t.Fatalf("reference run: %v", err)
					}

					// Interrupted run: cancel shortly after the first cells
					// land. Wherever the cancellation happens to fall, the
					// completed cells are checkpointed and the rest render
					// CANCELLED.
					ctx, cancel := context.WithCancel(context.Background())
					cs := NewCheckpoint(key)
					io := o
					io.Checkpoint = cs
					go func() {
						time.Sleep(30 * time.Millisecond)
						cancel()
					}()
					var interrupted bytes.Buffer
					_, ierr := e.Execute(ctx, io, &interrupted)
					cancel()
					if ctx.Err() != nil && ierr == nil && cs.Cells() == 0 {
						t.Fatal("interrupted run reported neither an error nor any completed cells")
					}

					// The checkpoint a kill would leave behind must load back
					// and seed a resume at the *other* worker count.
					path := filepath.Join(t.TempDir(), "run.json")
					if err := cs.Save(path); err != nil {
						t.Fatal(err)
					}
					loaded, err := LoadCheckpoint(path, key)
					if err != nil {
						t.Fatal(err)
					}
					ro := o
					ro.Workers = 9 - workers // 8 -> 1, 1 -> 8
					ro.Checkpoint = loaded
					var got bytes.Buffer
					if _, err := e.Execute(context.Background(), ro, &got); err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Errorf("resumed output differs from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s",
							want.String(), got.String())
					}
				})
			}
		})
	}
}

// TestCheckpointServesCompletedCells pins resume mechanics at the pool
// level deterministically: cells completed before an interrupt are
// served from the checkpoint without re-executing, later cells run
// live, and the merged results equal an uninterrupted run's.
func TestCheckpointServesCompletedCells(t *testing.T) {
	const jobs = 12
	key := testKey()
	cs := NewCheckpoint(key)

	// Phase 1: serial pool, cancel after job 5 — deterministic cut.
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 1, nil, "phase1")
	p.EnableCheckpoint(cs, "exp")
	var executed atomic.Int32
	for i := 0; i < jobs; i++ {
		i := i
		SubmitJob(p, fmt.Sprintf("unit%d", i), func(context.Context) (int, error) {
			executed.Add(1)
			if i == 5 {
				cancel()
			}
			return i * i, nil
		})
	}
	cancel()
	if got := executed.Load(); got != 6 {
		t.Fatalf("phase 1 executed %d jobs, want 6 (0..5 then cancel)", got)
	}
	if cs.Cells() != 6 {
		t.Fatalf("checkpoint holds %d cells, want 6", cs.Cells())
	}

	// Phase 2: resume from the round-tripped checkpoint on a fresh pool.
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := cs.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path, key)
	if err != nil {
		t.Fatal(err)
	}
	executed.Store(0)
	q := NewPool(context.Background(), 1, nil, "phase2")
	q.EnableCheckpoint(loaded, "exp")
	var futs []*Future[int]
	for i := 0; i < jobs; i++ {
		i := i
		futs = append(futs, SubmitJob(q, fmt.Sprintf("unit%d", i), func(context.Context) (int, error) {
			executed.Add(1)
			return i * i, nil
		}))
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i*i {
			t.Fatalf("resumed job %d got (%d, %v), want (%d, nil)", i, v, err, i*i)
		}
	}
	if got := executed.Load(); got != jobs-6 {
		t.Fatalf("resume re-executed %d jobs, want %d (6 served from checkpoint)", got, jobs-6)
	}
	if q.CachedJobs() != 6 {
		t.Fatalf("CachedJobs() = %d, want 6", q.CachedJobs())
	}

	// A drifted unit label must be a miss, not a wrong answer.
	r := NewPool(context.Background(), 1, nil, "drift")
	r.EnableCheckpoint(loaded, "exp")
	v, err := SubmitJob(r, "renamed-unit", func(context.Context) (int, error) { return -1, nil }).Result()
	if err != nil || v != -1 {
		t.Fatalf("drifted label served from checkpoint: got (%d, %v)", v, err)
	}
}

// TestCheckpointCellShapeMismatchReruns: a cell recorded under a wider
// cell type — a field the current type lacks — is a checkpoint miss
// that re-runs, never a value served with its fields zeroed, while a
// cell of the current shape is still served.
func TestCheckpointCellShapeMismatchReruns(t *testing.T) {
	type cell struct{ Cycles int }
	type wider struct{ Cycles, Misses int }
	cs := NewCheckpoint(testKey())
	cs.store("exp", 1, "same", cell{Cycles: 11})
	cs.store("exp", 2, "wide", wider{Cycles: 22, Misses: 3})

	p := NewPool(context.Background(), 1, nil, "shape")
	p.EnableCheckpoint(cs, "exp")
	var ran []string
	job := func(label string, fresh int) (cell, error) {
		return SubmitJob(p, label, func(context.Context) (cell, error) {
			ran = append(ran, label)
			return cell{Cycles: fresh}, nil
		}).Result()
	}
	if v, err := job("same", -1); err != nil || v.Cycles != 11 {
		t.Fatalf("same-shape cell: got (%+v, %v), want the stored {Cycles:11}", v, err)
	}
	if v, err := job("wide", 99); err != nil || v.Cycles != 99 {
		t.Fatalf("wider cell: got (%+v, %v), want the re-run {Cycles:99}", v, err)
	}
	if len(ran) != 1 || ran[0] != "wide" {
		t.Fatalf("executed %v, want only the wider cell re-run", ran)
	}
	if p.CachedJobs() != 1 {
		t.Fatalf("CachedJobs() = %d, want 1", p.CachedJobs())
	}
}

// TestCancelledRunFlushesValidCheckpoint covers the interrupt path end
// to end at the pool level: after cancellation, completed cells are in
// the checkpoint, the file it saves passes its own validation, and the
// cancelled jobs classify as interrupted (exit 130), never as failures.
func TestCancelledRunFlushesValidCheckpoint(t *testing.T) {
	key := testKey()
	cs := NewCheckpoint(key)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPool(ctx, 1, nil, "cancelled")
	p.EnableCheckpoint(cs, "exp")
	var futs []*Future[int]
	for i := 0; i < 8; i++ {
		i := i
		futs = append(futs, SubmitJob(p, fmt.Sprintf("u%d", i), func(jctx context.Context) (int, error) {
			if i == 3 {
				cancel()
			}
			if err := jctx.Err(); err != nil && i > 3 {
				return 0, err
			}
			return i, nil
		}))
	}
	var firstErr error
	for _, f := range futs {
		if _, err := f.Result(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		t.Fatal("no job observed the cancellation")
	}
	if !IsCancelled(firstErr) {
		t.Fatalf("cancelled job error %v not recognized by IsCancelled", firstErr)
	}
	if CellText(firstErr) != "CANCELLED" {
		t.Fatalf("CellText(%v) = %q, want CANCELLED", firstErr, CellText(firstErr))
	}
	sum := p.FailureSummary()
	if sum == nil {
		t.Fatal("cancelled run has a nil FailureSummary")
	}
	if got := ExitCode(sum); got != ExitInterrupted {
		t.Fatalf("ExitCode(cancelled summary) = %d, want %d", got, ExitInterrupted)
	}
	if cs.Cells() < 4 {
		t.Fatalf("checkpoint holds %d cells, want at least the 4 completed before cancel", cs.Cells())
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := cs.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, key); err != nil {
		t.Fatalf("flushed checkpoint failed validation: %v", err)
	}
}

// TestCancelledRunPrintsNoNumber runs every experiment under an
// already-cancelled context: every cell fails, so every computed cell,
// including the summary rows (suite rows, AVG, GEOMEAN, OVERALL and the
// compress budget rows), must render CANCELLED. A summary that folds
// the survivors into a number, or hard-codes ERR, fails by name.
func TestCancelledRunPrintsNoNumber(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tinyOptions()
	o.Accesses = 1000
	o.Workers = 2
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			_, err := e.Execute(ctx, o, &out)
			if got := ExitCode(err); got != ExitInterrupted {
				t.Fatalf("ExitCode = %d (err %v), want %d", got, err, ExitInterrupted)
			}
			text := out.String()
			if !strings.Contains(text, "CANCELLED") {
				t.Fatalf("no CANCELLED cell:\n%s", text)
			}
			for _, bad := range []string{"ERR", "NaN", "0.000"} {
				if strings.Contains(text, bad) {
					t.Errorf("cancelled run prints %q:\n%s", bad, text)
				}
			}
		})
	}
}

// TestPartlyFailedSummaryPrintsNoNumber: when one cell fails and the
// rest succeed, fig2's AVG and energy's OVERALL row render the failure
// instead of folding the surviving cells into a number. Every cell but
// the first is served from a checkpoint under a cancelled context, so
// exactly the first cell fails.
func TestPartlyFailedSummaryPrintsNoNumber(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	o := tinyOptions()
	o.Accesses = 1000
	o.Workers = 2
	for _, tc := range []struct{ id, summary string }{{"fig2", "AVG"}, {"energy", "OVERALL"}} {
		t.Run(tc.id, func(t *testing.T) {
			e, err := Get(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			ro := o
			ro.Checkpoint = NewCheckpoint(testKey())
			if _, err := e.Execute(context.Background(), ro, &bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
			delete(ro.Checkpoint.cells, cellKey(tc.id, 1))
			var out bytes.Buffer
			if _, err := e.Execute(cancelled, ro, &out); ExitCode(err) != ExitInterrupted {
				t.Fatalf("ExitCode(%v) = %d, want %d", err, ExitCode(err), ExitInterrupted)
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] == tc.summary {
					for _, cell := range f[1:] {
						if cell != "CANCELLED" {
							t.Fatalf("%s row folds the surviving cells into a number: %q", tc.summary, line)
						}
					}
					return
				}
			}
			t.Fatalf("no %s row:\n%s", tc.summary, out.String())
		})
	}
}

// TestWatchdogReapsHungJob is the watchdog acceptance test: a job that
// ignores its context is reaped within -job-timeout, a diagnostic
// bundle with goroutine stacks is written, the cell classifies as
// TIMEOUT (exit 3), and the pool keeps scheduling.
func TestWatchdogReapsHungJob(t *testing.T) {
	dir := t.TempDir()
	var progress bytes.Buffer
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(context.Background(), workers, NewSyncWriter(&progress), "wd")
			p.EnableRecovery(ReplayMeta{Experiment: "wd", Seed: 1}, dir)
			p.EnableWatchdog(50 * time.Millisecond)
			gate := make(chan struct{})
			defer close(gate)
			start := time.Now()
			// The job advances 37 scheduler steps — far short of the first
			// sim.CancelEvery boundary — then wedges while ignoring its
			// context: the worst case, and the one where interval-batched
			// step publishing used to leave the diagnostic bundle claiming
			// zero progress.
			const hangAt = 37
			hung := SubmitJob(p, "stuck/unit", func(jctx context.Context) (int, error) {
				hook := sim.ContextHook(jctx, JobSteps(jctx), nil)
				for s := uint64(1); s <= hangAt; s++ {
					if err := hook(s, sim.Cycle(s)); err != nil {
						return 0, err
					}
				}
				<-gate
				return 0, nil
			})
			_, err := hung.Result()
			reaped := time.Since(start)
			if !IsTimeout(err) {
				t.Fatalf("hung job error %v not recognized by IsTimeout", err)
			}
			if CellText(err) != "TIMEOUT" {
				t.Fatalf("CellText = %q, want TIMEOUT", CellText(err))
			}
			// Reaped within the timeout plus the (equal) grace period,
			// with generous slack for CI scheduling.
			if reaped > 2*time.Second {
				t.Fatalf("hung job held the pool for %v", reaped)
			}
			var je *JobError
			if !errors.As(err, &je) || !je.Timeout || je.ReplayPath == "" {
				t.Fatalf("bad timeout JobError: %+v", je)
			}
			raw, rerr := os.ReadFile(je.ReplayPath)
			if rerr != nil {
				t.Fatal(rerr)
			}
			var bundle struct {
				Version      int    `json:"version"`
				Experiment   string `json:"experiment"`
				Unit         string `json:"unit"`
				TimeoutMS    int64  `json:"timeout_ms"`
				ElapsedSteps uint64 `json:"elapsed_steps"`
				Stacks       string `json:"stacks"`
			}
			if err := json.Unmarshal(raw, &bundle); err != nil {
				t.Fatalf("diagnostic bundle is not valid JSON: %v", err)
			}
			if bundle.Version != BundleVersion || bundle.Experiment != "wd" ||
				bundle.Unit != "stuck/unit" || bundle.TimeoutMS != 50 ||
				!strings.Contains(bundle.Stacks, "goroutine") {
				t.Fatalf("diagnostic bundle missing fields: %+v", bundle)
			}
			if bundle.ElapsedSteps != hangAt {
				t.Fatalf("ElapsedSteps = %d, want %d (early hang must report exact progress)",
					bundle.ElapsedSteps, hangAt)
			}
			// The pool is not wedged: later jobs run and succeed.
			v, err := SubmitJob(p, "after", func(context.Context) (int, error) { return 99, nil }).Result()
			if err != nil || v != 99 {
				t.Fatalf("job after the reaped one got (%d, %v)", v, err)
			}
			sum := p.FailureSummary()
			if got := ExitCode(sum); got != ExitTimeout {
				t.Fatalf("ExitCode(timeout summary) = %d, want %d", got, ExitTimeout)
			}
			if !strings.Contains(progress.String(), "watchdog") {
				t.Fatalf("no watchdog line on progress: %q", progress.String())
			}
		})
	}
}

// TestWatchdogHonorsCooperativeJobs: a job that finishes under the
// timeout is untouched, and one that aborts at its cancellation point
// inside the grace period surfaces the timeout, not a wedge.
func TestWatchdogHonorsCooperativeJobs(t *testing.T) {
	p := NewPool(context.Background(), 1, nil, "coop")
	p.EnableWatchdog(time.Minute)
	v, err := SubmitJob(p, "fast", func(context.Context) (int, error) { return 5, nil }).Result()
	if err != nil || v != 5 {
		t.Fatalf("fast job under watchdog got (%d, %v)", v, err)
	}

	q := NewPool(context.Background(), 1, nil, "coop2")
	q.EnableWatchdog(30 * time.Millisecond)
	_, err = SubmitJob(q, "polite", func(jctx context.Context) (int, error) {
		<-jctx.Done() // cooperative: aborts the moment the watchdog fires
		return 0, jctx.Err()
	}).Result()
	if !IsTimeout(err) {
		t.Fatalf("cooperative hung job error = %v, want timeout", err)
	}
}

// TestFailureSummaryExitCodes is the documented exit-code table: each
// failure species drives FailureSummary to its own code, and
// interruption takes precedence over timeout over plain failure when a
// run mixes them.
func TestFailureSummaryExitCodes(t *testing.T) {
	mkPanic := func() error {
		p := NewPool(context.Background(), 1, nil, "p")
		SubmitJob(p, "boom", func(context.Context) (int, error) { panic("x") })
		return p.FailureSummary()
	}
	mkTimeout := func() error {
		p := NewPool(context.Background(), 1, nil, "t")
		p.EnableWatchdog(20 * time.Millisecond)
		gate := make(chan struct{})
		defer close(gate)
		SubmitJob(p, "hang", func(context.Context) (int, error) { <-gate; return 0, nil })
		return p.FailureSummary()
	}
	mkCancelled := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := NewPool(ctx, 1, nil, "c")
		SubmitJob(p, "late", func(context.Context) (int, error) { return 0, nil })
		return p.FailureSummary()
	}
	cases := []struct {
		name string
		err  error
		code int
		cell string
	}{
		{"ok", nil, ExitOK, ""},
		{"panic", mkPanic(), ExitFailure, "ERR"},
		{"timeout", mkTimeout(), ExitTimeout, "TIMEOUT"},
		{"cancelled", mkCancelled(), ExitInterrupted, "CANCELLED"},
		{"timeout-beats-failure", errors.Join(mkPanic(), mkTimeout()), ExitTimeout, ""},
		{"interrupt-beats-timeout", errors.Join(mkTimeout(), mkCancelled()), ExitInterrupted, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil && tc.name != "ok" {
				t.Fatal("setup produced no error")
			}
			if got := ExitCode(tc.err); got != tc.code {
				t.Fatalf("ExitCode = %d, want %d (err: %v)", got, tc.code, tc.err)
			}
			if tc.cell != "" {
				var first error
				if tc.err != nil {
					first = tc.err
				}
				if got := CellText(first); got != tc.cell {
					t.Fatalf("CellText = %q, want %q", got, tc.cell)
				}
			}
		})
	}
}

// TestLoadCheckpointRejects covers every refusal path: wrong version,
// wrong run shape, torn/edited content, unknown fields, and garbage —
// each with an error naming the exact mismatch.
func TestLoadCheckpointRejects(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// A valid file to mutate.
	cs := NewCheckpoint(key)
	cs.store("exp", 1, "u", 42)
	good := filepath.Join(dir, "good.json")
	if err := cs.Save(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage", func(t *testing.T) {
		_, err := LoadCheckpoint(write("garbage.json", "not json"), key)
		if err == nil || !strings.Contains(err.Error(), "is not a checkpoint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		_, err := LoadCheckpoint(write("v99.json", `{"version":99}`), key)
		want := fmt.Sprintf("version 99, this build reads %d", CheckpointVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		other := key
		other.Seed = 7
		_, err := LoadCheckpoint(good, other)
		if err == nil || !strings.Contains(err.Error(), "written by a different run") {
			t.Fatalf("err = %v", err)
		}
		// The refusal names the stored run shape so the operator can see
		// what the file actually covers.
		if !strings.Contains(err.Error(), `kind="run"`) || !strings.Contains(err.Error(), "seed=1") {
			t.Fatalf("refusal does not describe the stored key: %v", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		edited := strings.Replace(string(raw), `42`, `43`, 1)
		if edited == string(raw) {
			t.Fatal("mutation did not apply")
		}
		_, err := LoadCheckpoint(write("torn.json", edited), key)
		if err == nil || !strings.Contains(err.Error(), "torn or was edited") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown-field", func(t *testing.T) {
		var f map[string]any
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatal(err)
		}
		f["extra"] = 1
		b, _ := json.Marshal(f)
		_, err := LoadCheckpoint(write("extra.json", string(b)), key)
		if err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		loaded, err := LoadCheckpoint(good, key)
		if err != nil {
			t.Fatal(err)
		}
		var v int
		if !loaded.lookup("exp", 1, "u", &v) || v != 42 {
			t.Fatalf("round-tripped cell lookup failed: %d", v)
		}
	})
}

// TestVerifyGridRejects extends the resume refusal table to grid drift:
// a checkpoint holding cells the current spec no longer generates —
// removed cells, drifted unit labels — is rejected by name instead of
// silently ignored, and long offender lists truncate with a count.
func TestVerifyGridRejects(t *testing.T) {
	grid := []CellID{
		{Scope: "exp", Seq: 1, Unit: "u1"},
		{Scope: "exp", Seq: 2, Unit: "u2"},
	}
	mk := func(cells ...CellID) *CheckpointState {
		cs := NewCheckpoint(testKey())
		for _, c := range cells {
			cs.store(c.Scope, c.Seq, c.Unit, 1)
		}
		return cs
	}
	cases := []struct {
		name string
		cs   *CheckpointState
		want []string // substrings of the refusal; empty = accepted
	}{
		{"empty", mk(), nil},
		{"subset", mk(grid[0]), nil},
		{"exact", mk(grid...), nil},
		{"removed-cell", mk(grid[0], CellID{Scope: "exp", Seq: 9, Unit: "gone"}),
			[]string{"1 cell(s) the current run does not generate", `exp#9 (unit "gone")`, "re-run without -resume"}},
		{"drifted-unit", mk(grid[0], CellID{Scope: "exp", Seq: 2, Unit: "renamed"}),
			[]string{`exp#2 (unit "renamed", grid has "u2")`}},
		{"foreign-scope", mk(CellID{Scope: "other", Seq: 1, Unit: "u1"}),
			[]string{`other#1 (unit "u1")`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cs.VerifyGrid(grid)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("unexpected refusal: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("drifted checkpoint was accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("refusal %q missing %q", err.Error(), w)
				}
			}
		})
	}

	t.Run("truncates-long-lists", func(t *testing.T) {
		cs := NewCheckpoint(testKey())
		for i := 100; i < 112; i++ {
			cs.store("exp", i, "extra", 1)
		}
		err := cs.VerifyGrid(grid)
		if err == nil {
			t.Fatal("12 alien cells accepted")
		}
		if !strings.Contains(err.Error(), "12 cell(s)") || !strings.Contains(err.Error(), "and 4 more") {
			t.Fatalf("long refusal not truncated with a count: %v", err)
		}
	})

	t.Run("round-trips-through-disk", func(t *testing.T) {
		// The CLI path loads, then verifies; the refusal must survive the
		// save/load round trip (units are re-derived from the records).
		cs := mk(grid[0], CellID{Scope: "exp", Seq: 7, Unit: "stale"})
		path := filepath.Join(t.TempDir(), "drift.json")
		if err := cs.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCheckpoint(path, testKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.VerifyGrid(grid); err == nil || !strings.Contains(err.Error(), "exp#7") {
			t.Fatalf("loaded drifted checkpoint: err = %v", err)
		}
	})
}

// TestDecodeBundleRejects covers the replay-bundle codec's refusals.
func TestDecodeBundleRejects(t *testing.T) {
	valid, err := json.Marshal(replayBundle{
		Version:    BundleVersion,
		ReplayMeta: ReplayMeta{Experiment: "fig9", Scale: 8, Accesses: 100, Seed: 3, Workers: 2, Backends: "dls,zerodev"},
		Unit:       "u", Seq: 1, Attempt: 1, Panic: "x", Stack: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := DecodeBundle(bytes.NewReader(valid))
	if err != nil || meta.Experiment != "fig9" || meta.Seed != 3 {
		t.Fatalf("valid bundle: meta=%+v err=%v", meta, err)
	}
	if meta.Backends != "dls,zerodev" {
		t.Fatalf("backend tag lost in round-trip: meta=%+v", meta)
	}
	// A pre-backend bundle (no "backends" field) still loads: the field
	// is omitempty on write and simply zero on read.
	preBackend := `{"version":1,"experiment":"old","scale":8,"accesses":100,"seed":3,"workers":2,"unit":"u","seq":1,"attempt":1,"panic":"p","stack":"s"}`
	meta, err = DecodeBundle(strings.NewReader(preBackend))
	if err != nil || meta.Experiment != "old" || meta.Backends != "" {
		t.Fatalf("pre-backend bundle refused: meta=%+v err=%v", meta, err)
	}
	cases := []struct{ name, in, want string }{
		{"garbage", "nope", "not a replay bundle"},
		{"version", `{"version":9,"experiment":"x"}`, "bundle version 9, this build reads 1"},
		{"unknown-field", `{"version":1,"experiment":"x","scale":1,"accesses":1,"seed":1,"workers":1,"seq":1,"attempt":1,"panic":"p","stack":"s","surprise":true}`, "decoding replay bundle"},
		{"backends-wrong-type", `{"version":1,"experiment":"x","scale":1,"accesses":1,"seed":1,"workers":1,"backends":7,"seq":1,"attempt":1,"panic":"p","stack":"s"}`, "decoding replay bundle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBundle(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSyncWriterSerializes: concurrent writers through one SyncWriter
// never interleave bytes within a Write call. Run with -race to catch
// unsynchronized access to the underlying buffer.
func TestSyncWriterSerializes(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			defer func() { done <- struct{}{} }()
			line := fmt.Sprintf("writer-%d says hello\n", i)
			for j := 0; j < 100; j++ {
				fmt.Fprint(w, line)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "writer-") || !strings.HasSuffix(line, "says hello") {
			t.Fatalf("interleaved line: %q", line)
		}
	}
	if NewSyncWriter(nil) == nil {
		t.Fatal("NewSyncWriter(nil) returned nil")
	}
}
