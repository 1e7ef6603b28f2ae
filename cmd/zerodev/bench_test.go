package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// writeBaseline marshals a benchFile to a temp path for compareBench.
func writeBaseline(t *testing.T, bf benchFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	b, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchWith(fig18Ns int64) benchFile {
	return benchFile{
		Version: BenchFileVersion,
		Config:  benchConfig{Scale: 32, Accesses: 5000, Seed: 1, Quick: true},
		Results: []benchEntry{{Experiment: "fig18", Workers: 1, NsPerOp: fig18Ns}},
	}
}

// TestCompareBench pins the regression gate's failure modes: a missing
// baseline, a schema-version mismatch and a baseline measured at
// another workload config fail with their named errors (not a generic
// message a CI job could mistake for a regression), a within-limit
// measurement passes, and a real regression fails with none of the
// named errors.
func TestCompareBench(t *testing.T) {
	cur := benchWith(1_000_000)
	baselineAt := func(change func(*benchConfig)) func(t *testing.T) string {
		return func(t *testing.T) string {
			bf := benchWith(1_000_000)
			change(&bf.Config)
			return writeBaseline(t, bf)
		}
	}
	for _, tc := range []struct {
		name     string
		baseline func(t *testing.T) string
		wantErr  error  // errors.Is target; nil = expect success
		wantMsg  string // substring of a non-nil error, when wantErr is nil
	}{
		{
			name:     "baseline missing",
			baseline: func(t *testing.T) string { return filepath.Join(t.TempDir(), "nope.json") },
			wantErr:  ErrBaselineMissing,
		},
		{
			name: "baseline version mismatch",
			baseline: func(t *testing.T) string {
				bf := benchWith(1_000_000)
				bf.Version = BenchFileVersion - 1
				return writeBaseline(t, bf)
			},
			wantErr: ErrBaselineVersion,
		},
		{name: "baseline at another scale", baseline: baselineAt(func(c *benchConfig) { c.Scale = 8 }), wantErr: ErrBaselineConfig},
		{name: "baseline at another accesses", baseline: baselineAt(func(c *benchConfig) { c.Accesses = 3000 }), wantErr: ErrBaselineConfig},
		{name: "baseline at another seed", baseline: baselineAt(func(c *benchConfig) { c.Seed = 2 }), wantErr: ErrBaselineConfig},
		{name: "baseline without quick", baseline: baselineAt(func(c *benchConfig) { c.Quick = false }), wantErr: ErrBaselineConfig},
		{
			name:     "within limit",
			baseline: func(t *testing.T) string { return writeBaseline(t, benchWith(900_000)) },
		},
		{
			name:     "regression beyond limit",
			baseline: func(t *testing.T) string { return writeBaseline(t, benchWith(500_000)) },
			wantMsg:  "fig18 regressed",
		},
		{
			name: "baseline lacks serial fig18",
			baseline: func(t *testing.T) string {
				bf := benchWith(1_000_000)
				bf.Results[0].Workers = 2
				return writeBaseline(t, bf)
			},
			wantMsg: "serial fig18 entry",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBench(cur, tc.baseline(t), 0.20)
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.wantErr)
				}
			case tc.wantMsg != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantMsg) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantMsg)
				}
				if errors.Is(err, ErrBaselineMissing) || errors.Is(err, ErrBaselineVersion) || errors.Is(err, ErrBaselineConfig) {
					t.Fatalf("regression error %v must not match the baseline-setup errors", err)
				}
			default:
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
			}
		})
	}
}

// TestBenchGatesBeforeOverwrite pins that the gate reads the baseline
// before -o writes: when -o names the -compare file itself (the default
// -o is BENCH_<v>.json), the run must still be gated against the
// committed numbers, not against its own.
func TestBenchGatesBeforeOverwrite(t *testing.T) {
	bf := benchWith(1) // 1 ns/op: any real fig18 run regresses
	bf.Config.Accesses = 200
	path := writeBaseline(t, bf)
	code, _, stderr := runCaptured(t, func() int {
		return benchCmd(context.Background(), []string{"-accesses", "200", "-experiments", "fig18",
			"-parallel", "", "-backends", "", "-count", "1", "-o", path, "-compare", path})
	})
	if code != 1 || !strings.Contains(stderr, "fig18 regressed") {
		t.Fatalf("exit %d, stderr %q; want exit 1 and a fig18 regression against the committed baseline", code, stderr)
	}
}

// TestFindEntry pins that serial and parallel measurements of the same
// experiment are distinct rows in the comparison.
func TestFindEntry(t *testing.T) {
	bf := benchFile{Results: []benchEntry{
		{Experiment: "fig18", Workers: 1, NsPerOp: 10},
		{Experiment: "fig18", Workers: 2, NsPerOp: 20},
	}}
	if e := bf.find("fig18", 1); e == nil || e.NsPerOp != 10 {
		t.Fatalf("serial entry = %+v, want ns_per_op 10", e)
	}
	if e := bf.find("fig18", 2); e == nil || e.NsPerOp != 20 {
		t.Fatalf("workers=2 entry = %+v, want ns_per_op 20", e)
	}
	if e := bf.find("multisocket", 1); e != nil {
		t.Fatalf("multisocket entry = %+v, want nil", e)
	}
}

// TestFindEntryBackendAxis pins that backend-tagged entries are
// distinct rows — and invisible to the untagged lookups the regression
// gate and pre-backend baselines use, which is what makes the
// per-backend additions non-breaking.
func TestFindEntryBackendAxis(t *testing.T) {
	bf := benchFile{Results: []benchEntry{
		{Experiment: "figbackends", Backend: "zerodev", Workers: 1, NsPerOp: 10},
		{Experiment: "figbackends", Backend: "dls", Workers: 1, NsPerOp: 20},
	}}
	if e := bf.findBackend("figbackends", "dls", 1); e == nil || e.NsPerOp != 20 {
		t.Fatalf("dls entry = %+v, want ns_per_op 20", e)
	}
	if e := bf.find("figbackends", 1); e != nil {
		t.Fatalf("untagged lookup matched a backend-tagged entry: %+v", e)
	}
	// A backend-tagged current file still satisfies an old untagged
	// baseline: the gate's fig18 lookup ignores the new rows.
	cur := benchWith(1_000_000)
	cur.Results = append(cur.Results, bf.Results...)
	if err := compareBench(cur, writeBaseline(t, benchWith(1_000_000)), 0.20); err != nil {
		t.Fatalf("backend-tagged entries broke comparison against an untagged baseline: %v", err)
	}
}

// TestMeasureCancelled: an interrupted measurement returns an error
// classified as cancelled (so bench exits 130) on the serial and the
// parallel path alike, instead of failing the benchmark with b.Fatal,
// which crashes a process not run by `go test`.
func TestMeasureCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := harness.Options{Scale: 32, Accesses: 1000, Seed: 1, Quick: true}
	for _, workers := range []int{1, 2} {
		_, err := measure(ctx, "fig2", o, workers)
		if !harness.IsCancelled(err) {
			t.Errorf("workers=%d: measure under a cancelled context returned %v, want a cancellation", workers, err)
		}
	}
}

// TestMeasureSerialCancelPrompt: a cancellation during a serial
// measurement ends it within sim.CancelEvery steps of the in-flight
// simulation, not when the experiment run finishes (a full run here
// takes tens of seconds).
func TestMeasureSerialCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := harness.Options{Scale: 32, Accesses: 100_000, Seed: 1, Quick: true}
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	_, err := measure(ctx, "fig18", o, 1)
	if !harness.IsCancelled(err) {
		t.Fatalf("measure returned %v, want a cancellation", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("serial measurement took %v to honour a cancellation at 200ms", took)
	}
}
