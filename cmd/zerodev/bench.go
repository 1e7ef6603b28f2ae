package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/stats"
)

// BenchFileVersion tags the BENCH_*.json schema; bump it when fields
// change meaning. The conventional output name is BENCH_<v>.json.
const BenchFileVersion = 8

// Named comparison failures, so callers (and the regression-gate table
// test) can distinguish an unusable baseline from a real regression.
var (
	// ErrBaselineMissing: the -compare baseline file cannot be read.
	ErrBaselineMissing = errors.New("baseline file missing")
	// ErrBaselineVersion: the baseline's schema version differs from
	// BenchFileVersion, so its entries are not comparable.
	ErrBaselineVersion = errors.New("baseline schema version mismatch")
	// ErrBaselineConfig: the baseline was measured at another -scale,
	// -accesses, -seed or -quick, so its entries time another workload.
	ErrBaselineConfig = errors.New("baseline measured at a different config")
)

// benchEntry is one measured benchmark: an experiment at a worker
// count. NsPerOp/AllocsPerOp/BytesPerOp are from the fastest of the
// -count runs (minimum is the stable statistic on a noisy machine; the
// raw samples are kept so any other statistic can be recomputed).
type benchEntry struct {
	Experiment string `json:"experiment"`
	// Backend tags entries from the per-backend sweep (the figbackends
	// experiment restricted to one protocol backend); omitted for the
	// classic whole-experiment entries, so pre-backend baselines stay
	// comparable entry for entry.
	Backend     string  `json:"backend,omitempty"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SamplesNs   []int64 `json:"samples_ns"`
	// Parallelism is the realized speedup (summed sim time over wall
	// time) of the last run; present only for Workers > 1.
	Parallelism float64 `json:"parallelism,omitempty"`
}

type benchConfig struct {
	Scale    int    `json:"scale"`
	Accesses int    `json:"accesses"`
	Seed     uint64 `json:"seed"`
	Quick    bool   `json:"quick"`
}

type benchFile struct {
	Version    int          `json:"version"`
	Go         string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Config     benchConfig  `json:"config"`
	Notes      []string     `json:"notes,omitempty"`
	Results    []benchEntry `json:"results"`
}

// benchCmd measures the per-figure experiment benchmarks at Quick scale
// and writes a versioned BENCH JSON. With -compare it additionally
// gates against a committed baseline file, failing (exit 1) when the
// serial Fig18 ns/op regresses more than -max-regress.
func benchCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	o := harness.DefaultOptions()
	o.Scale, o.Accesses, o.Quick, o.Workers = 32, 5000, true, 1
	fs.IntVar(&o.Scale, "scale", o.Scale, "capacity scale divisor (power of two)")
	fs.IntVar(&o.Accesses, "accesses", o.Accesses, "memory accesses per core")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "workload synthesis seed")
	ids := fs.String("experiments", "fig2,fig5,fig6,fig18,multisocket,figscale",
		"comma-separated experiments to benchmark serially, or `all`")
	parIDs := fs.String("parallel", "fig18",
		"comma-separated experiments to additionally benchmark on the parallel engine (\"\" disables)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker count for the -parallel runs (at least 1)")
	backendsFlag := fs.String("backends", "all",
		"comma-separated protocol backends to benchmark individually (each a figbackends run restricted to one backend; \"\" disables)")
	count := fs.Int("count", 3, "runs per benchmark; ns/op is the fastest run")
	out := fs.String("o", fmt.Sprintf("BENCH_%d.json", BenchFileVersion), "output file")
	compare := fs.String("compare", "", "baseline BENCH JSON to regression-gate against")
	maxRegress := fs.Float64("max-regress", 0.20,
		"fail if serial Fig18 ns/op exceeds the -compare baseline by more than this fraction (finite, at least 0)")
	prof := addProfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Seed = seed
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "bench: -count must be at least 1")
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "bench: -workers must be at least 1, got %d\n", *workers)
		return 2
	}
	if math.IsNaN(*maxRegress) || math.IsInf(*maxRegress, 0) || *maxRegress < 0 {
		fmt.Fprintf(os.Stderr, "bench: -max-regress must be a finite fraction of at least 0, got %v\n", *maxRegress)
		return 2
	}
	serial, err := benchIDs(*ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	parallel, err := benchIDs(*parIDs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bids []backend.ID
	if *backendsFlag != "" {
		if bids, err = backend.ParseList(*backendsFlag); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -backends:", err)
			return 2
		}
	}
	stopProf, err := prof.start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer stopProf()

	bf := benchFile{
		Version:    BenchFileVersion,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     benchConfig{Scale: o.Scale, Accesses: o.Accesses, Seed: o.Seed, Quick: o.Quick},
	}
	for _, id := range serial {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return harness.ExitInterrupted
		}
		ent, err := measureBest(ctx, id, o, 1, *count)
		if err != nil {
			return benchFailed(id, err)
		}
		bf.Results = append(bf.Results, ent)
		fmt.Printf("%-14s workers=1        %12d ns/op  %9d B/op  %7d allocs/op\n",
			id, ent.NsPerOp, ent.BytesPerOp, ent.AllocsPerOp)
	}
	for _, id := range parallel {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return harness.ExitInterrupted
		}
		ent, err := measureBest(ctx, id, o, *workers, *count)
		if err != nil {
			return benchFailed(id, err)
		}
		bf.Results = append(bf.Results, ent)
		fmt.Printf("%-14s workers=%-2d       %12d ns/op  %9d B/op  %7d allocs/op  %.1fx realized\n",
			id, ent.Workers, ent.NsPerOp, ent.BytesPerOp, ent.AllocsPerOp, ent.Parallelism)
	}
	for _, bid := range bids {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return harness.ExitInterrupted
		}
		bo := o
		bo.Backends = string(bid)
		ent, err := measureBest(ctx, "figbackends", bo, 1, *count)
		if err != nil {
			return benchFailed("figbackends", err)
		}
		ent.Backend = string(bid)
		bf.Results = append(bf.Results, ent)
		fmt.Printf("%-14s backend=%-13s %10d ns/op  %9d B/op  %7d allocs/op\n",
			"figbackends", bid, ent.NsPerOp, ent.BytesPerOp, ent.AllocsPerOp)
	}
	if len(bids) > 0 {
		bf.Notes = append(bf.Notes,
			"backend entries are the figbackends sweep restricted to one protocol backend each, measured serially (workers=1); they compare protocol cost, not host parallelism")
	}

	// Gate before writing: -o may name the -compare baseline itself, and
	// the gate must read the committed numbers, not this run's.
	var gateErr error
	if *compare != "" {
		gateErr = compareBench(bf, *compare, *maxRegress)
	}
	if *out != "" {
		b, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := atomicio.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *compare != "" {
		if gateErr != nil {
			fmt.Fprintln(os.Stderr, "bench:", gateErr)
			return 1
		}
		fmt.Printf("within %.4g%% of baseline %s\n", *maxRegress*100, *compare)
	}
	return 0
}

// benchIDs expands a comma-separated experiment list, validating every
// name against the harness registry. "all" expands to every experiment
// in `zerodev list` order; "" is empty.
func benchIDs(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		var ids []string
		for _, e := range harness.List() {
			ids = append(ids, e.ID)
		}
		return ids, nil
	}
	ids := strings.Split(s, ",")
	for _, id := range ids {
		if _, err := harness.Get(id); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// benchFailed reports the failed measurement of experiment id and
// returns the exit code; an interrupt ends with the one line that says
// so.
func benchFailed(id string, err error) int {
	reportFailure(os.Stderr, "bench: "+id, err)
	if harness.IsCancelled(err) {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
	}
	return harness.ExitCode(err)
}

// measureBest measures one experiment count times and keeps the
// fastest run (accumulating raw samples).
func measureBest(ctx context.Context, id string, o harness.Options, workers, count int) (benchEntry, error) {
	ent, err := measure(ctx, id, o, workers)
	if err != nil {
		return benchEntry{}, err
	}
	for i := 1; i < count; i++ {
		more, err := measure(ctx, id, o, workers)
		if err != nil {
			return benchEntry{}, err
		}
		ent = fastest(ent, more)
	}
	return ent, nil
}

// measure runs one experiment under testing.Benchmark, through the
// harness's worker pool at the given worker count: one worker measures
// the serial path (the one the determinism goldens pin), more measure
// the parallel engine and report its realized parallelism. Every
// simulation watches ctx, so the first failure or ctx's cancellation
// ends the measurement within sim.CancelEvery steps and is returned:
// b.Fatal would crash the process, since testing.Benchmark outside
// `go test` has no test runner to report to.
func measure(ctx context.Context, id string, o harness.Options, workers int) (benchEntry, error) {
	e, err := harness.Get(id)
	if err != nil {
		return benchEntry{}, err
	}
	o.Workers = workers
	var par float64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && runErr == nil; i++ {
			var tm stats.RunTiming
			tm, runErr = e.Execute(ctx, o, io.Discard)
			if workers > 1 {
				par = tm.Parallelism()
			}
		}
	})
	if runErr != nil {
		return benchEntry{}, runErr
	}
	return benchEntry{
		Experiment:  id,
		Workers:     workers,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		SamplesNs:   []int64{r.NsPerOp()},
		Parallelism: par,
	}, nil
}

// fastest merges two runs of the same benchmark, keeping the faster
// figures and accumulating the raw samples.
func fastest(a, b benchEntry) benchEntry {
	samples := append(a.SamplesNs, b.SamplesNs...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if b.NsPerOp < a.NsPerOp {
		b.SamplesNs = samples
		return b
	}
	a.SamplesNs = samples
	return a
}

func (f *benchFile) find(id string, workers int) *benchEntry {
	return f.findBackend(id, "", workers)
}

// findBackend locates one entry by its full identity, including the
// backend tag ("" matches the classic untagged entries, which is what
// keeps pre-backend baselines comparable).
func (f *benchFile) findBackend(id, backendID string, workers int) *benchEntry {
	for i := range f.Results {
		e := &f.Results[i]
		if e.Experiment == id && e.Backend == backendID && e.Workers == workers {
			return e
		}
	}
	return nil
}

// compareBench gates the serial Fig18 measurement against a baseline
// file: a regression beyond maxRegress fails the run. Only Fig18 gates
// — it is the 128-core serial stress benchmark the overhaul targets —
// but every common entry is reported. A missing baseline fails with
// ErrBaselineMissing, a schema-version mismatch with ErrBaselineVersion
// and a baseline measured at another workload config with
// ErrBaselineConfig, so CI distinguishes a broken gate setup from a
// real performance regression.
func compareBench(cur benchFile, baselinePath string, maxRegress float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBaselineMissing, baselinePath, err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if base.Version != cur.Version {
		return fmt.Errorf("%w: baseline %s is version %d, this build writes version %d",
			ErrBaselineVersion, baselinePath, base.Version, cur.Version)
	}
	if base.Config != cur.Config {
		return fmt.Errorf("%w: baseline %s was measured at %+v, this run at %+v",
			ErrBaselineConfig, baselinePath, base.Config, cur.Config)
	}
	for _, b := range base.Results {
		if c := cur.findBackend(b.Experiment, b.Backend, b.Workers); c != nil && b.NsPerOp > 0 {
			label := fmt.Sprintf("workers=%d", b.Workers)
			if b.Backend != "" {
				label = "backend=" + b.Backend + " " + label
			}
			fmt.Printf("vs baseline: %-14s %-24s %+.1f%%\n", b.Experiment, label,
				100*(float64(c.NsPerOp)/float64(b.NsPerOp)-1))
		}
	}
	b := base.find("fig18", 1)
	c := cur.find("fig18", 1)
	if b == nil || c == nil {
		return fmt.Errorf("comparison needs a serial fig18 entry in both files")
	}
	limit := float64(b.NsPerOp) * (1 + maxRegress)
	if float64(c.NsPerOp) > limit {
		return fmt.Errorf("fig18 regressed: %d ns/op vs baseline %d (>%.4g%% over)",
			c.NsPerOp, b.NsPerOp, maxRegress*100)
	}
	return nil
}
