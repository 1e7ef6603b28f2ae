package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/stats"
)

// This file implements the parallel experiment engine. Every simulation
// an experiment performs is an independent job: it builds its own
// core.System from freshly synthesized, seed-derived streams, so jobs
// share no mutable state and may run concurrently in any order. The
// engine preserves the serial output bit for bit by separating
// scheduling from assembly: jobs are submitted in the same order the
// serial loops ran them, each Submit returns a Future, and callers Wait
// on the futures in submission order before formatting any output.
// DESIGN.md ("Parallel sweeps") records the determinism argument;
// determinism_test.go enforces it.
//
// The engine is also crash-safe and interruptible:
//
//   - a job that panics (the protocol stack panics on corruption) is
//     recovered into a typed *JobError carrying a replay bundle and
//     surfaced through Future.Result so the experiment renders the cell
//     as ERR. A job is a pure function of its spec and options, so it
//     would panic at the same step again: nothing is retried;
//   - every job runs under a context derived from the pool's: when the
//     pool's context is cancelled (SIGINT/SIGTERM via the CLI), queued
//     jobs resolve immediately and running simulations abort within
//     sim.CancelEvery steps, rendering as CANCELLED;
//   - an armed watchdog bounds each job's wall time: a hung unit is
//     cancelled, a diagnostic bundle (job identity, elapsed steps, full
//     goroutine stacks) is written, and the cell renders as TIMEOUT
//     instead of wedging the pool;
//   - completed cells can be recorded in a CheckpointState so an
//     interrupted run resumes without re-running finished work.

// Pool schedules independent simulation jobs across a bounded number of
// worker goroutines. With Workers <= 1 jobs run inline on the caller's
// goroutine at Submit time, which is exactly the serial execution path.
// A Pool also accounts jobs and summed simulation time for the
// RunTiming summary, and optionally emits progress lines.
type Pool struct {
	ctx      context.Context
	workers  int
	sem      chan struct{}
	label    string
	progress io.Writer

	crashDir   string
	meta       ReplayMeta
	jobTimeout time.Duration

	ckpt      *CheckpointState
	ckptScope string

	enum func(seq int, unit string)
	gate func(seq int, unit string) (bool, error)

	mu        sync.Mutex
	submitted int
	done      int
	cached    int
	sim       time.Duration
	lastLine  time.Time
	errs      []*JobError
}

// NewPool returns a pool running at most workers jobs concurrently
// (values below 1 are treated as 1, the serial path). ctx is the pool's
// cancellation root: every job runs under a context derived from it,
// and a nil ctx means "never cancelled". When progress is non-nil,
// rate-limited "done/submitted" lines prefixed with label are written
// to it as jobs finish.
func NewPool(ctx context.Context, workers int, progress io.Writer, label string) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{ctx: ctx, workers: workers, label: label, progress: progress}
	if workers > 1 {
		p.sem = make(chan struct{}, workers)
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// EnableRecovery arms replay bundles: a recovered panic writes one into
// crashDir (when non-empty) stamped with meta. Without EnableRecovery
// panics are still converted to *JobError, but no bundle is written.
func (p *Pool) EnableRecovery(meta ReplayMeta, crashDir string) {
	p.meta = meta
	p.crashDir = crashDir
}

// EnableWatchdog arms the per-job watchdog: a job still running after d
// has its context cancelled, a diagnostic bundle written next to the
// crash bundles, and its failure recorded as a TIMEOUT cell. d <= 0
// disables the watchdog.
func (p *Pool) EnableWatchdog(d time.Duration) { p.jobTimeout = d }

// EnableCheckpoint connects the pool to a run-wide checkpoint: a
// successfully completed job's result is recorded under scope, and a
// job whose cell is already recorded is served from the checkpoint
// without running. scope (typically the experiment ID) keys cells when
// several pools share one CheckpointState.
func (p *Pool) EnableCheckpoint(cs *CheckpointState, scope string) {
	p.ckpt = cs
	p.ckptScope = scope
}

// EnableEnumerate puts the pool in enumeration mode: submitted jobs are
// reported to fn in submission order and resolve immediately with zero
// values, without executing anything. This is how Cells discovers an
// experiment's cell grid — the set of (seq, unit) jobs is a pure
// function of the Options, never of simulation results, so the grid
// enumerated is exactly the grid a run executes.
func (p *Pool) EnableEnumerate(fn func(seq int, unit string)) { p.enum = fn }

// EnableGate installs a per-job admission decision, consulted after the
// checkpoint lookup: gate(seq, unit) returning (true, _) runs the job
// normally; (false, nil) resolves it with a zero value without
// executing (a worker skipping cells leased to someone else); and
// (false, err) resolves it as a failed cell carrying err (a coordinator
// rendering a degraded campaign's ERR cells without re-running them).
// Skipped jobs are never recorded in the checkpoint.
func (p *Pool) EnableGate(gate func(seq int, unit string) (bool, error)) { p.gate = gate }

// ReplayMeta identifies the run a crashed job belonged to, precisely
// enough to replay it: the experiment and the Options that shape every
// stream and system it builds.
type ReplayMeta struct {
	Experiment string `json:"experiment"`
	Scale      int    `json:"scale"`
	Accesses   int    `json:"accesses"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
	Workers    int    `json:"workers"`
	// Backends records the run's -backend selection, so a bundle from a
	// backend-matrix or audit-soak run replays against the same protocol
	// axis. Empty (and omitted) for runs predating the backend axis or
	// using the default; DecodeBundle's version-head-then-strict decode
	// keeps pre-backend bundles loading — a missing field is simply the
	// zero value, while unknown fields are still refused.
	Backends string `json:"backends,omitempty"`
}

// ErrJobTimeout marks a job reaped by the watchdog; IsTimeout
// recognizes it through any wrapping.
var ErrJobTimeout = errors.New("job exceeded -job-timeout")

// JobError is the typed failure of one submitted job: a recovered panic
// (Panic non-empty, replay bundle at ReplayPath), an error the job
// returned (wrapped in Err — including context cancellation), or a
// watchdog timeout (Timeout set, diagnostic bundle at ReplayPath).
type JobError struct {
	Meta       ReplayMeta
	Unit       string // submission label, e.g. "canneal/ZeroDEV-1/8"
	Seq        int    // submission order within the pool
	Panic      string // recovered panic value, "" for returned errors
	Err        error  // the returned error, nil for panics
	Timeout    bool   // reaped by the watchdog
	Attempts   int    // executions performed: always 1, since nothing is retried
	ReplayPath string // bundle path, "" when no bundle was written
}

// Error implements error.
func (e *JobError) Error() string {
	what := e.Panic
	if e.Err != nil {
		what = e.Err.Error()
	}
	name := e.Unit
	if name == "" {
		name = fmt.Sprintf("job %d", e.Seq)
	}
	msg := fmt.Sprintf("job %q failed after %d attempt(s): %s", name, e.Attempts, what)
	if e.ReplayPath != "" {
		msg += " (replay bundle: " + e.ReplayPath + ")"
	}
	return msg
}

// Unwrap exposes a returned error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// IsTimeout reports whether err carries a watchdog-reaped job.
func IsTimeout(err error) bool { return errors.Is(err, ErrJobTimeout) }

// IsCancelled reports whether err stems from context cancellation (the
// run was interrupted, not broken).
func IsCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CellText renders a failed cell's table text. The classification is
// deterministic for a given failure kind, keeping tables byte-stable.
func CellText(err error) string {
	switch {
	case err == nil:
		return ""
	case IsTimeout(err):
		return "TIMEOUT"
	case IsCancelled(err):
		return "CANCELLED"
	}
	return "ERR"
}

// Documented process exit codes for experiment/campaign commands.
// ExitCode classifies with interruption taking precedence over
// timeouts, and timeouts over ordinary failures, so `echo $?` always
// names the most actionable cause.
const (
	ExitOK          = 0
	ExitFailure     = 1   // crashed/erroring cells, invariant violations
	ExitUsage       = 2   // bad flags (flag package convention)
	ExitTimeout     = 3   // watchdog reaped at least one hung job
	ExitInterrupted = 130 // SIGINT/SIGTERM: 128 + SIGINT, shell convention
)

// ExitCode maps a run's joined error to the documented exit code.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case IsCancelled(err):
		return ExitInterrupted
	case IsTimeout(err):
		return ExitTimeout
	}
	return ExitFailure
}

// jobMonitor is the per-job progress surface the watchdog reads when
// dumping diagnostics: simulations publish their scheduler step count
// here through sim.ContextHook.
type jobMonitor struct {
	steps atomic.Uint64
}

type monitorKey struct{}

// JobSteps returns the step counter of the job owning ctx, for
// simulation drivers to publish progress into (nil when ctx does not
// belong to a pool job; sim.ContextHook accepts nil).
func JobSteps(ctx context.Context) *atomic.Uint64 {
	if ctx == nil {
		return nil
	}
	if m, ok := ctx.Value(monitorKey{}).(*jobMonitor); ok {
		return &m.steps
	}
	return nil
}

// Future is the pending result of a submitted job.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Wait blocks until the job finishes and returns its result. A failed
// job yields the zero value; use Result to observe the failure.
func (f *Future[T]) Wait() T {
	<-f.done
	return f.val
}

// Result blocks until the job finishes and returns its result and
// error (a *JobError for recovered panics).
func (f *Future[T]) Result() (T, error) {
	<-f.done
	return f.val, f.err
}

// Submit schedules fn on the pool and returns its future. On a serial
// pool (workers <= 1, or p == nil) fn runs before Submit returns, so a
// sequence of Submit calls executes jobs in exactly the serial order.
// fn receives the job's context (cancelled on interrupt or watchdog
// timeout); a panic in fn is recovered into the future's error.
func Submit[T any](p *Pool, fn func(ctx context.Context) T) *Future[T] {
	return SubmitJob(p, "", func(ctx context.Context) (T, error) { return fn(ctx), nil })
}

// SubmitJob is Submit for jobs that can fail: label names the job in
// failure reports (unit/config), and fn's error is propagated through
// Future.Result without aborting sibling jobs.
func SubmitJob[T any](p *Pool, label string, fn func(ctx context.Context) (T, error)) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	if p == nil {
		f.val, f.err = runRecovered(nil, context.Background(), label, 0, fn)
		close(f.done)
		return f
	}
	p.mu.Lock()
	p.submitted++
	seq := p.submitted
	p.mu.Unlock()
	run := func() {
		start := time.Now()
		f.val, f.err = execute(p, label, seq, fn)
		// Count the job before resolving its future, so a caller that has
		// waited on every future sees every job in the pool's timing.
		p.finish(start)
		close(f.done)
	}
	if p.workers <= 1 {
		run()
		return f
	}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		run()
	}()
	return f
}

// execute runs one job end to end: checkpoint lookup, cancellation
// check, watchdog supervision, panic recovery, and the recording of
// the final result (into the pool's failure list or the checkpoint).
func execute[T any](p *Pool, label string, seq int, fn func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	// Enumeration mode records the cell and never executes (or consults
	// the checkpoint: the grid must be complete even when every cell is
	// already done).
	if p.enum != nil {
		p.enum(seq, label)
		return zero, nil
	}
	// A cell already in the checkpoint is served without running: this
	// is the resume path, and decoding the stored JSON reproduces the
	// original value exactly (every cell type round-trips).
	if p.ckpt != nil {
		var v T
		if ok := p.ckpt.lookup(p.ckptScope, seq, label, &v); ok {
			p.mu.Lock()
			p.cached++
			p.mu.Unlock()
			return v, nil
		}
	}
	// The gate skips cells this process does not own (a worker holding a
	// lease on a different cell) or stubs cells whose outcome is already
	// decided (a degraded cell rendering as ERR). Skips bypass the
	// checkpoint store: only genuinely executed results are recorded.
	if p.gate != nil {
		if run, gerr := p.gate(seq, label); !run {
			if gerr != nil {
				je := &JobError{Meta: p.meta, Unit: label, Seq: seq, Err: gerr, Attempts: 1}
				p.record(je)
				return zero, je
			}
			return zero, nil
		}
	}
	// A cancelled pool resolves queued jobs immediately: in-flight
	// simulations drain on their own cancellation points, and nothing
	// new starts.
	if err := p.ctx.Err(); err != nil {
		je := &JobError{Meta: p.meta, Unit: label, Seq: seq, Err: err, Attempts: 1}
		p.record(je)
		return zero, je
	}
	mon := &jobMonitor{}
	jctx, cancel := context.WithCancel(context.WithValue(p.ctx, monitorKey{}, mon))
	defer cancel()

	if p.jobTimeout <= 0 {
		val, err := runRecovered(p, jctx, label, seq, fn)
		return finalize(p, label, seq, val, err)
	}

	// Watchdog path: the job body runs on its own goroutine so a wedged
	// unit (one that never reaches a cancellation point) can be
	// abandoned without wedging the pool or the serial caller.
	type outcome struct {
		val T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, e := runRecovered(p, jctx, label, seq, fn)
		ch <- outcome{v, e}
	}()
	timer := time.NewTimer(p.jobTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return finalize(p, label, seq, out.val, out.err)
	case <-timer.C:
		cancel()
		bundle := p.writeTimeoutBundle(label, seq, mon.steps.Load())
		p.note("watchdog: job %q exceeded %v; cancelling (diagnostics: %s)\n", label, p.jobTimeout, bundle)
		// Grace period for the cooperative abort to land; a unit that
		// ignores its context is abandoned (its eventual result, if
		// any, is discarded — the buffered channel lets it exit).
		grace := p.jobTimeout
		if grace > 2*time.Second {
			grace = 2 * time.Second
		}
		select {
		case <-ch:
		case <-time.After(grace):
		}
		je := &JobError{
			Meta: p.meta, Unit: label, Seq: seq,
			Err:     fmt.Errorf("%w (%v)", ErrJobTimeout, p.jobTimeout),
			Timeout: true, Attempts: 1, ReplayPath: bundle,
		}
		p.record(je)
		return zero, je
	}
}

// finalize records a finished job: failures land in the pool's failure
// list, successes in the checkpoint (when armed).
func finalize[T any](p *Pool, label string, seq int, val T, err error) (T, error) {
	if err != nil {
		var je *JobError
		if !errors.As(err, &je) {
			je = &JobError{Meta: p.meta, Unit: label, Seq: seq, Err: err, Attempts: 1}
			err = je
		}
		p.record(je)
		return val, err
	}
	if p.ckpt != nil {
		p.ckpt.store(p.ckptScope, seq, label, val)
	}
	return val, nil
}

// record appends a failure to the pool's list.
func (p *Pool) record(je *JobError) {
	p.mu.Lock()
	p.errs = append(p.errs, je)
	p.mu.Unlock()
}

// note writes a line to the progress writer under the pool mutex (the
// writer needs no synchronization of its own).
func (p *Pool) note(format string, args ...any) {
	if p.progress == nil {
		return
	}
	p.mu.Lock()
	fmt.Fprintf(p.progress, format, args...)
	p.mu.Unlock()
}

// runRecovered executes fn once, wrapping a returned error in a
// *JobError and recovering a panic into one whose replay bundle is
// written while the state is fresh.
func runRecovered[T any](p *Pool, ctx context.Context, label string, seq int, fn func(ctx context.Context) (T, error)) (val T, err error) {
	defer func() {
		r := recover()
		if r == nil && err == nil {
			return
		}
		je := &JobError{Unit: label, Seq: seq, Err: err, Attempts: 1}
		if r != nil {
			je.Panic = fmt.Sprint(r)
		}
		if p != nil {
			je.Meta = p.meta
			if r != nil {
				je.ReplayPath = p.writeBundle(je, debug.Stack())
			}
		}
		err = je
	}()
	return fn(ctx)
}

// BundleVersion stamps crash and watchdog bundles; bump on incompatible
// format changes so stale bundles are refused instead of misdecoded.
const BundleVersion = 1

// replayBundle is the on-disk crash artifact: everything needed to
// re-run the failed job (the workload and system are pure functions of
// experiment + options + unit label) plus the panic and stack for
// diagnosis.
type replayBundle struct {
	Version int `json:"version"`
	ReplayMeta
	Unit    string `json:"unit,omitempty"`
	Seq     int    `json:"seq"`
	Attempt int    `json:"attempt"`
	Panic   string `json:"panic"`
	Stack   string `json:"stack"`
}

// DecodeBundle reads a crash/watchdog bundle, refusing unknown fields
// and version mismatches with a clear error rather than decoding
// garbage from a different build's artifact.
func DecodeBundle(r io.Reader) (ReplayMeta, error) {
	var head struct {
		Version int `json:"version"`
	}
	var buf []byte
	var err error
	if buf, err = io.ReadAll(r); err != nil {
		return ReplayMeta{}, err
	}
	if err := json.Unmarshal(buf, &head); err != nil {
		return ReplayMeta{}, fmt.Errorf("harness: not a replay bundle: %w", err)
	}
	if head.Version != BundleVersion {
		return ReplayMeta{}, fmt.Errorf("harness: bundle version %d, this build reads %d", head.Version, BundleVersion)
	}
	var b replayBundle
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return ReplayMeta{}, fmt.Errorf("harness: decoding replay bundle: %w", err)
	}
	return b.ReplayMeta, nil
}

// timeoutBundle is the watchdog's diagnostic artifact: the hung job's
// identity, how far it got (the exact scheduler step count —
// sim.ContextHook publishes on every step, so a job that wedges before
// the first cancellation boundary still reports its true progress), and
// a full goroutine dump showing where every worker is stuck.
type timeoutBundle struct {
	Version int `json:"version"`
	ReplayMeta
	Unit         string `json:"unit,omitempty"`
	Seq          int    `json:"seq"`
	TimeoutMS    int64  `json:"timeout_ms"`
	ElapsedSteps uint64 `json:"elapsed_steps"`
	Stacks       string `json:"stacks"`
}

// writeBundle persists the crash artifact and returns its path. The
// filename is a pure function of the job identity — no timestamps — so
// reruns overwrite rather than accumulate and output stays
// deterministic. The write is atomic: a kill mid-write never leaves a
// torn bundle.
func (p *Pool) writeBundle(je *JobError, stack []byte) string {
	if p.crashDir == "" {
		return ""
	}
	name := p.bundleName(je.Unit, fmt.Sprintf("j%03d_a%d", je.Seq, je.Attempts))
	b, err := json.MarshalIndent(replayBundle{
		Version:    BundleVersion,
		ReplayMeta: p.meta,
		Unit:       je.Unit,
		Seq:        je.Seq,
		Attempt:    je.Attempts,
		Panic:      je.Panic,
		Stack:      string(stack),
	}, "", "  ")
	if err != nil {
		return ""
	}
	path := filepath.Join(p.crashDir, name)
	if err := atomicio.WriteFile(path, b, 0o644); err != nil {
		return ""
	}
	return path
}

// writeTimeoutBundle persists the watchdog diagnostic and returns its
// path ("" when the pool has no crash directory).
func (p *Pool) writeTimeoutBundle(unit string, seq int, steps uint64) string {
	if p.crashDir == "" {
		return ""
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	name := p.bundleName(unit, fmt.Sprintf("j%03d_timeout", seq))
	b, err := json.MarshalIndent(timeoutBundle{
		Version:      BundleVersion,
		ReplayMeta:   p.meta,
		Unit:         unit,
		Seq:          seq,
		TimeoutMS:    p.jobTimeout.Milliseconds(),
		ElapsedSteps: steps,
		Stacks:       string(stacks),
	}, "", "  ")
	if err != nil {
		return ""
	}
	path := filepath.Join(p.crashDir, name)
	if err := atomicio.WriteFile(path, b, 0o644); err != nil {
		return ""
	}
	return path
}

// bundleName maps a job to its deterministic bundle filename.
func (p *Pool) bundleName(unit, suffix string) string {
	u := sanitizeName(unit)
	if u == "" {
		u = "job"
	}
	return fmt.Sprintf("%s_%s_%s.json", sanitizeName(p.meta.Experiment), u, suffix)
}

// sanitizeName maps a job label to a filesystem-safe token.
func sanitizeName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// Failures returns the recorded job failures in submission order
// (deterministic regardless of worker scheduling).
func (p *Pool) Failures() []*JobError {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*JobError, len(p.errs))
	copy(out, p.errs)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FailureSummary returns nil when every job succeeded, and otherwise an
// error summarizing the failures (wrapping the first in submission
// order, with every failure reachable by errors.Is/As for exit-code
// classification).
func (p *Pool) FailureSummary() error {
	fails := p.Failures()
	if len(fails) == 0 {
		return nil
	}
	p.mu.Lock()
	total := p.done
	p.mu.Unlock()
	rest := make([]error, 0, len(fails)-1)
	for _, je := range fails[1:] {
		rest = append(rest, je)
	}
	err := fmt.Errorf("%d of %d jobs failed; first: %w", len(fails), total, fails[0])
	if len(rest) > 0 {
		err = errors.Join(append([]error{err}, rest...)...)
	}
	if p.crashDir != "" {
		err = fmt.Errorf("%w (replay bundles under %s)", err, p.crashDir)
	}
	return err
}

// CachedJobs reports how many cells were served from the checkpoint
// instead of running, for resume reporting.
func (p *Pool) CachedJobs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cached
}

// finish records a completed job and emits a progress line at most once
// per second. The write happens under the pool mutex so a shared
// progress writer needs no synchronization of its own.
func (p *Pool) finish(start time.Time) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.sim += now.Sub(start)
	if p.progress != nil && now.Sub(p.lastLine) >= time.Second {
		p.lastLine = now
		fmt.Fprintf(p.progress, "%s: %d/%d jobs\n", p.label, p.done, p.submitted)
	}
}

// timing snapshots the pool's accounting into a RunTiming (Wall is
// filled in by the caller, which owns the experiment's clock).
func (p *Pool) timing() stats.RunTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	return stats.RunTiming{
		Experiment: p.label,
		Workers:    p.workers,
		Jobs:       p.done,
		Failed:     len(p.errs),
		Sim:        p.sim,
	}
}

// newRunPool returns the pool one run of scope (an experiment ID)
// executes on: o.Workers wide, reporting progress to o.Progress,
// writing replay bundles stamped with scope and the result-shaping
// options under o.CrashDir, reaping jobs that outlive o.JobTimeout, and
// recording cells into o.Checkpoint under scope when it is armed.
func newRunPool(ctx context.Context, o Options, scope string) *Pool {
	p := NewPool(ctx, o.Workers, o.Progress, scope)
	p.EnableRecovery(ReplayMeta{
		Experiment: scope,
		Scale:      o.Scale,
		Accesses:   o.Accesses,
		Seed:       o.Seed,
		Quick:      o.Quick,
		Workers:    o.Workers,
		Backends:   o.Backends,
	}, o.CrashDir)
	p.EnableWatchdog(o.JobTimeout)
	if o.Checkpoint != nil {
		p.EnableCheckpoint(o.Checkpoint, scope)
	}
	return p
}

// Execute runs the experiment under ctx with a shared worker pool sized
// by o.Workers and returns the timing summary alongside the
// experiment's error. Output written to w is byte-identical for any
// worker count. Job failures that the experiment did not itself
// propagate are folded into the returned error, so a run with crashed,
// timed-out, or cancelled cells always reports non-nil (classify with
// ExitCode). When o.Checkpoint is armed, completed cells are recorded
// under the experiment's ID and already-recorded cells are served
// without re-running.
func (e Experiment) Execute(ctx context.Context, o Options, w io.Writer) (stats.RunTiming, error) {
	p := newRunPool(ctx, o, e.ID)
	o.pool = p
	start := time.Now()
	err := e.Run(o, w)
	if err == nil {
		err = p.FailureSummary()
	}
	t := p.timing()
	t.Wall = time.Since(start)
	return t, err
}
