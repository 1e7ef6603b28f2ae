// Package harness defines one runnable experiment per table and figure
// in the paper's evaluation. Each experiment builds the system
// configurations it sweeps, runs the workloads, and prints the same
// rows/series the paper reports, normalized the same way. EXPERIMENTS.md
// records the measured output against the paper's numbers.
package harness

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/socket"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options control experiment scale. The defaults regenerate every
// figure in minutes on a laptop; Scale=1 with more accesses approaches
// Table I fidelity at proportional cost.
type Options struct {
	// Scale divides all cache capacities and workload footprints
	// (power of two).
	Scale int
	// Accesses is the per-core reference-stream length.
	Accesses int
	// Seed drives workload synthesis.
	Seed uint64
	// Quick trims application lists to a representative subset per
	// suite; used by the benchmark targets.
	Quick bool
	// Workers bounds how many simulations run concurrently on the pool
	// Execute installs. Values <= 1, and an experiment's Run called
	// without Execute, run every simulation inline on the calling
	// goroutine (the exact serial path); any value produces
	// byte-identical experiment output because results are assembled in
	// submission order.
	Workers int
	// Progress, when non-nil, receives rate-limited "done/total jobs"
	// lines while an experiment runs (the CLI points it at stderr).
	Progress io.Writer

	// CrashDir is where replay bundles for panicking jobs are written
	// ("" disables bundles; panics are still recovered into errors).
	CrashDir string

	// Backends selects the protocol backends the backend-axis
	// experiments (figbackends) sweep, as a comma-separated list of
	// backend names; "" or "all" selects every registered backend. It is
	// result-shaping: the cell grid of a backend-axis experiment is a
	// function of it, so it participates in checkpoint fingerprints.
	Backends string

	// JobTimeout, when positive, arms the per-job watchdog: a simulation
	// still running after this long is cancelled, a diagnostic bundle is
	// written next to the crash bundles, and the cell renders TIMEOUT.
	JobTimeout time.Duration
	// Checkpoint, when non-nil, records completed cells so an
	// interrupted run can resume without re-running finished work.
	Checkpoint *CheckpointState

	// pool is the run's worker pool, installed by Execute,
	// ExecuteSelected, RenderFromCheckpoint and Cells; every grid submits
	// on it. Nil runs each job inline as it is submitted.
	pool *Pool
}

// Pool returns the run's worker pool, for an experiment defined outside
// this package to submit its jobs on (SubmitJob). It is nil when Run is
// called directly rather than through Execute, which runs each job
// inline as it is submitted.
func (o Options) Pool() *Pool { return o.pool }

// Validate rejects option values that would otherwise surface as deep
// panics inside config or workload synthesis, with messages phrased for
// the CLI flags that set them.
func (o Options) Validate() error {
	if o.Scale < 1 || o.Scale&(o.Scale-1) != 0 {
		return fmt.Errorf("-scale must be a positive power of two, got %d", o.Scale)
	}
	// Every preset divides its cache capacities by the scale, so past
	// some scale a cache holds fewer blocks than it has ways; refuse it
	// here rather than in every simulation's cache constructor.
	for _, p := range []config.Preset{config.TableI(o.Scale), config.Server128(o.Scale)} {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("-scale %d is too large: %w", o.Scale, err)
		}
	}
	if o.Accesses <= 0 {
		return fmt.Errorf("-accesses must be positive, got %d", o.Accesses)
	}
	if o.Workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", o.Workers)
	}
	if o.JobTimeout < 0 {
		return fmt.Errorf("-job-timeout must be non-negative, got %v", o.JobTimeout)
	}
	if _, err := backend.ParseList(o.Backends); err != nil {
		// The error wraps backend.ErrUnknownBackend and names the valid
		// set, phrased for the flag that set it.
		return fmt.Errorf("-backend: %w", err)
	}
	return nil
}

// BackendIDs returns the parsed backend selection. Call Validate first;
// an invalid list here falls back to every backend rather than
// panicking deep inside an experiment.
func (o Options) BackendIDs() []backend.ID {
	ids, err := backend.ParseList(o.Backends)
	if err != nil {
		ids, _ = backend.ParseList("all")
	}
	return ids
}

// DefaultOptions returns the standard experiment scale, with one
// simulation worker per available CPU and crash bundles under
// results/crash.
func DefaultOptions() Options {
	return Options{
		Scale:    8,
		Accesses: 100_000,
		Seed:     1,
		Workers:  runtime.GOMAXPROCS(0),
		CrashDir: filepath.Join("results", "crash"),
	}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

var registry []Experiment

func register(id, title string, run func(o Options, w io.Writer) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// List returns all experiments in registration order. Each file
// registers its experiments in its init, and init runs in file-name
// order, so the list opens with fig12 and the ablations (ablation.go)
// and closes with figbackends and figscale.
func List() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get finds an experiment by ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (see `zerodev list`)", id)
}

// --- run helpers -------------------------------------------------------------

// runStreams executes a spec against prepared streams and collects
// stats. It aborts with ctx's error (within sim.CancelEvery steps) when
// the job is cancelled or timed out; the partial Run is never returned,
// so a checkpoint can only ever record fully completed cells.
func runStreams(ctx context.Context, spec core.SystemSpec, streams []cpu.Stream, label string) (stats.Run, error) {
	sys := core.NewSystem(spec, streams)
	cycles, err := sys.RunCtx(ctx, JobSteps(ctx))
	if err != nil {
		return stats.Run{}, err
	}
	return stats.Collect(label, sys, cycles), nil
}

// runSockets is runStreams for a multi-socket system: it runs the
// streams across every socket's cores and collects the same record.
// With check set it also verifies the end-of-run invariants: figscale
// asserts them at every width, while multisocket and ablation-backing
// skip a check that adds about 7% to a quick multisocket run (2-thread
// Xeon host). Construction errors are returned so one bad unit cannot
// abort its siblings.
func runSockets(ctx context.Context, p socket.Params, spec core.SystemSpec, streams []cpu.Stream, label string, check bool) (stats.Run, error) {
	sys, err := socket.New(p, spec, streams)
	if err != nil {
		return stats.Run{}, err
	}
	cycles, err := sys.RunCtx(ctx, JobSteps(ctx))
	if err != nil {
		return stats.Run{}, err
	}
	if check {
		if err := sys.CheckInvariants(); err != nil {
			return stats.Run{}, fmt.Errorf("%s: %w", label, err)
		}
	}
	return stats.CollectSockets(label, sys, cycles), nil
}

// suiteApps returns the applications evaluated for a suite, trimmed in
// quick mode.
func suiteApps(o Options, suite string) []workload.Profile {
	apps := workload.Suite(suite)
	if !o.Quick {
		return apps
	}
	quick := map[string][]string{
		"PARSEC":   {"canneal", "freqmine", "vips"},
		"SPLASH2X": {"lu_ncb", "ocean_cp"},
		"SPECOMP":  {"330.art", "312.swim"},
		"FFTW":     {"FFTW"},
		"CPU2017":  {"xalancbmk", "gcc.ppO2", "mcf"},
		"SERVER":   {"SPECjbb", "TPC-C"},
	}
	names := quick[suite]
	var out []workload.Profile
	for _, n := range names {
		out = append(out, workload.MustGet(n))
	}
	return out
}

// mtSuites are the multithreaded suites evaluated together in most
// figures.
var mtSuites = []string{"PARSEC", "SPLASH2X", "SPECOMP", "FFTW"}

// allSuites adds the rate workloads.
var allSuites = []string{"PARSEC", "SPLASH2X", "SPECOMP", "FFTW", "CPU2017"}

// isMT reports whether a suite runs in multithreaded mode.
func isMT(suite string) bool { return suite != "CPU2017" && suite != "CPU2017HET" }
