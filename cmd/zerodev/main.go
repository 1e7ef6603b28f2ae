// Command zerodev runs the ZeroDEV reproduction experiments: one per
// table/figure in the paper (see DESIGN.md for the index), or a single
// workload under a chosen configuration for exploration.
//
// Usage:
//
//	zerodev list
//	zerodev run [-scale N] [-accesses N] [-seed N] [-quick] [-workers N] [-backend B,..] [-list-backends] [-job-timeout D] [-resume FILE] <experiment>...
//	zerodev run all            # every experiment, in `zerodev list` order
//	zerodev single [-config baseline|zerodev] [-ratio R] [-policy P] <app>
//	zerodev audit [-faults K,..] [-campaigns C,..] [-backend B,..] [-audit-every N] [-job-timeout D] [-resume FILE]
//	zerodev check [-cores N] [-addrs N] [-depth N] [-policies P,..] [-backends B,..] [-workers N] [-job-timeout D] [-replay FILE] [-list]
//	zerodev bench [-experiments IDs] [-count N] [-o FILE] [-compare FILE]
//
// run, audit, check, and bench accept -cpuprofile/-memprofile FILE and
// -pprof-http ADDR for performance investigation.
//
// SIGINT/SIGTERM cancels in-flight simulations cooperatively, flushes
// completed cells to the checkpoint, and exits 130; -resume picks the
// run back up. Exit codes: 0 ok, 1 failure, 2 usage, 3 watchdog
// timeout, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/llc"
	"repro/internal/mcheck"
	"repro/internal/stats"
	"repro/internal/workload"
)

// main delegates to realMain so deferred cleanup — profile flushing,
// signal-handler teardown — runs before the process exits: os.Exit
// skips defers, so the subcommands return exit codes instead of calling
// it themselves.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	// One SIGINT/SIGTERM cancels the root context: in-flight simulations
	// abort within sim.CancelEvery steps, completed work is flushed to
	// the checkpoint, and the process exits with code 130. A second
	// signal kills the process immediately (stop() restores default
	// signal handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	switch os.Args[1] {
	case "list":
		writeList(os.Stdout)
		return 0
	case "run":
		return runCmd(ctx, os.Args[2:])
	case "single":
		return singleCmd(os.Args[2:])
	case "audit":
		return auditCmd(ctx, os.Args[2:])
	case "trace":
		return traceCmd(os.Args[2:])
	case "compare":
		return compareCmd(ctx, os.Args[2:])
	case "check":
		return checkCmd(ctx, os.Args[2:])
	case "bench":
		return benchCmd(ctx, os.Args[2:])
	default:
		usage()
		return 2
	}
}

func writeList(w io.Writer) {
	for _, e := range harness.List() {
		fmt.Fprintf(w, "%-12s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w)
	backend.WriteList(w)
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: zerodev list | run [flags] <experiment>...|all | single [flags] <app> | compare [flags] <app> | trace [flags] | audit [flags] | check [flags] | bench [flags]")
}

func runCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	o := harness.DefaultOptions()
	fs.IntVar(&o.Scale, "scale", o.Scale, "capacity scale divisor (power of two; 1 = Table I)")
	fs.IntVar(&o.Accesses, "accesses", o.Accesses, "memory accesses per core")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "workload synthesis seed")
	fs.BoolVar(&o.Quick, "quick", false, "trim application lists to a representative subset")
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel simulation workers (1 = serial; output is identical either way)")
	fs.DurationVar(&o.JobTimeout, "job-timeout", 0, "per-simulation watchdog: cancel a job running longer than this, dump diagnostics, record TIMEOUT (0 = off)")
	ckptPath := fs.String("checkpoint", filepath.Join("results", "checkpoint", "run.json"),
		"where completed cells are persisted for -resume (\"\" disables checkpointing)")
	resume := fs.String("resume", "", "resume from a checkpoint file: completed cells are served from it instead of re-running")
	quiet := fs.Bool("quiet", false, "suppress progress and timing lines on stderr")
	fs.StringVar(&o.Backends, "backend", "", "comma-separated protocol backends for the backend-axis experiments (\"\"/\"all\" = every backend; see -list-backends)")
	listBackends := fs.Bool("list-backends", false, "describe the protocol backends, then exit")
	prof := addProfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listBackends {
		backend.WriteList(os.Stdout)
		return 0
	}
	stopProf, err := prof.start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		return 2
	}
	defer stopProf()
	o.Seed = seed
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "run: no experiments named; try `zerodev list`")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range harness.List() {
			ids = append(ids, e.ID)
		}
	}
	// Resolve every experiment before the first simulation, so an
	// unknown ID refuses the whole run instead of surfacing after the
	// experiments named before it have printed.
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		e, err := harness.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "run:", err)
			return 2
		}
		exps[i] = e
	}
	key := harness.CheckpointKey{
		Kind: "run", IDs: ids,
		Scale: o.Scale, Accesses: o.Accesses, Seed: o.Seed, Quick: o.Quick,
		Backends: o.Backends,
	}
	return runExperiments(ctx, "run", exps, o, key, *ckptPath, *resume, *quiet)
}

// runExperiments is the one path run, audit and compare execute
// through: it runs exps in order on o under one checkpoint key and
// returns the documented exit code. With resume set it first verifies
// the checkpoint against every experiment's cell grid
// (Experiment.Cells), so a checkpoint holding cells this build no
// longer submits is refused by name; with ckptPath set it saves the
// checkpoint after each experiment. Tables go to stdout, each followed
// by one blank line; failures go to stderr, as do progress and timing
// lines unless quiet.
func runExperiments(ctx context.Context, cmd string, exps []harness.Experiment, o harness.Options,
	key harness.CheckpointKey, ckptPath, resume string, quiet bool) int {
	stderr := harness.NewSyncWriter(os.Stderr)
	if !quiet {
		o.Progress = stderr
	}
	if resume != "" {
		var grid []harness.CellID
		for _, e := range exps {
			cells, err := e.Cells(o)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
				return harness.ExitUsage
			}
			grid = append(grid, cells...)
		}
		cs, err := harness.LoadCheckpoint(resume, key)
		if err == nil {
			// The fingerprint pins the run shape; the grid check
			// additionally pins the cell decomposition.
			err = cs.VerifyGrid(grid)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
			return harness.ExitUsage
		}
		o.Checkpoint = cs
		fmt.Fprintf(stderr, "[resuming from %s: %d completed cells]\n", resume, cs.Cells())
	} else if ckptPath != "" {
		o.Checkpoint = harness.NewCheckpoint(key)
	}
	var errs []error
	var failed []string
	for _, e := range exps {
		start := time.Now()
		tm, err := e.Execute(ctx, o, os.Stdout)
		if ckptPath != "" {
			if serr := o.Checkpoint.Save(ckptPath); serr != nil {
				fmt.Fprintf(stderr, "%s: saving checkpoint: %v\n", cmd, serr)
			}
		}
		if err != nil {
			// Keep going: later experiments are independent, and the
			// failure (including any ERR cells) is already rendered.
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			errs = append(errs, err)
			failed = append(failed, e.ID)
		}
		if !quiet {
			tm.Fprint(stderr)
			fmt.Fprintf(stderr, "[%s finished in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		// Wall-clock chatter stays on stderr: stdout carries only the
		// experiment tables, so an interrupted-then-resumed run's stdout
		// is byte-identical to an uninterrupted one (CI diffs it).
		fmt.Println()
		if ctx.Err() != nil {
			break
		}
	}
	if ctx.Err() != nil {
		if ckptPath != "" {
			fmt.Fprintf(stderr, "%s: interrupted; completed cells saved to %s — resume with `zerodev %s -resume %s ...`\n", cmd, ckptPath, cmd, ckptPath)
		} else {
			fmt.Fprintf(stderr, "%s: interrupted\n", cmd)
		}
		return harness.ExitInterrupted
	}
	if len(errs) == 0 {
		return harness.ExitOK
	}
	if len(exps) > 1 {
		fmt.Fprintf(stderr, "%s: %d of %d experiments failed: %s\n",
			cmd, len(failed), len(exps), strings.Join(failed, ", "))
	}
	return harness.ExitCode(errors.Join(errs...))
}

// parseMode parses the -mode value of single and compare, naming the
// valid values when it is none of them.
func parseMode(s string) (llc.Mode, error) {
	switch strings.ToLower(s) {
	case "noninclusive":
		return llc.NonInclusive, nil
	case "epd":
		return llc.EPD, nil
	case "inclusive":
		return llc.Inclusive, nil
	}
	return 0, fmt.Errorf("unknown -mode %q (want noninclusive, epd, or inclusive)", s)
}

// maxDirRatio bounds the directory ratio single and compare accept.
// Every paper configuration is at most 1×, and a 16× Table I directory
// at -scale 1 (512 Ki entries) still builds and runs in a fraction of a
// second; ratios far beyond it exhaust host memory sizing the directory.
const maxDirRatio = 16

// checkRatio refuses a directory ratio that is negative, not finite, or
// above maxDirRatio, naming the valid range.
func checkRatio(r float64) error {
	if math.IsNaN(r) || r < 0 || r > maxDirRatio {
		return fmt.Errorf("ratio %g is outside the valid range 0 to %d (a fraction of aggregate L2 blocks, e.g. 0.125)", r, maxDirRatio)
	}
	return nil
}

// singleSpec builds the system single runs from its -config, -ratio,
// -policy and -mode values. A value that names nothing, or a ratio
// checkRatio refuses, is refused, not replaced by a default.
func singleSpec(pre config.Preset, cfg string, ratio float64, policy, mode string) (core.SystemSpec, error) {
	if err := checkRatio(ratio); err != nil {
		return core.SystemSpec{}, err
	}
	lm, err := parseMode(mode)
	if err != nil {
		return core.SystemSpec{}, err
	}
	pm, err := mcheck.ParsePolicy(policy)
	if err != nil {
		return core.SystemSpec{}, err
	}
	switch strings.ToLower(cfg) {
	case "baseline":
		if ratio == 0 {
			ratio = 1
		}
		return pre.Baseline(ratio, lm), nil
	case "unbounded":
		return pre.Unbounded(lm), nil
	case "zerodev":
		return pre.ZeroDEV(ratio, pm, llc.DataLRU, lm), nil
	}
	return core.SystemSpec{}, fmt.Errorf("unknown -config %q (want baseline, zerodev, or unbounded)", cfg)
}

func singleCmd(args []string) int {
	fs := flag.NewFlagSet("single", flag.ExitOnError)
	scale := fs.Int("scale", 8, "capacity scale divisor")
	accesses := fs.Int("accesses", 100000, "memory accesses per core")
	cfg := fs.String("config", "zerodev", "baseline | zerodev | unbounded")
	ratio := fs.Float64("ratio", 0, "sparse directory size as a fraction of aggregate L2 blocks, 0 to 16 (0 = none)")
	policy := fs.String("policy", "fpss", "spillall | fpss | fuseall")
	mode := fs.String("mode", "noninclusive", "noninclusive | epd | inclusive")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "single: exactly one application name required")
		return 2
	}
	if err := (harness.Options{Scale: *scale, Accesses: *accesses, Workers: 1}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "single:", err)
		return 2
	}
	spec, err := singleSpec(config.TableI(*scale), *cfg, *ratio, *policy, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "single:", err)
		return 2
	}
	prof, err := workload.Get(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	streams := workload.Threads(prof, spec.Cores, *accesses, *scale, 1)
	if prof.Suite == "CPU2017" {
		streams = workload.Rate(prof, spec.Cores, *accesses, *scale, 1)
	}
	sys := core.NewSystem(spec, streams)
	cycles := sys.Run()
	r := stats.Collect(prof.Name, sys, cycles)
	fmt.Printf("app=%s config=%s dir=%s cycles=%d\n", prof.Name, *cfg, sys.Engine.Directory().Name(), cycles)
	fmt.Printf("core cache misses=%d (%.2f MPKI)  traffic=%d bytes  DRAM r/w=%d/%d\n",
		r.CoreCacheMisses(), r.MPKI(), r.Traffic.TotalBytes(), r.DRAM.Reads, r.DRAM.Writes)
	st := r.Engine
	fmt.Printf("DEVs=%d demandInv=%d inclusionInv=%d forwards=%d\n", st.DEVs, st.DemandInvals, st.InclusionInvals, st.Forwards3Hop)
	fmt.Printf("DE: spills=%d fuses=%d spill2fuse=%d fuse2spill=%d evictedToMem=%d getDE=%d corruptedFetch=%d\n",
		st.DESpills, st.DEFuses, st.DESpillToFuse, st.DEFuseToSpill, st.DEEvictionsToMemory, st.GetDEFlows, st.CorruptedFetches)
	fmt.Printf("LLC lines: data=%d spilled=%d fused=%d\n", r.LLCData, r.LLCSpilled, r.LLCFused)
	if n := st.NReadLLCHit + st.NReadForward + st.NReadMemory; n > 0 {
		avg := func(lat, n uint64) float64 {
			if n == 0 {
				return 0
			}
			return float64(lat) / float64(n)
		}
		fmt.Printf("read latency: LLC hit %.1f cyc (%d), forward %.1f cyc (%d), memory %.1f cyc (%d)\n",
			avg(st.LatReadLLCHit, st.NReadLLCHit), st.NReadLLCHit,
			avg(st.LatReadForward, st.NReadForward), st.NReadForward,
			avg(st.LatReadMemory, st.NReadMemory), st.NReadMemory)
	}
	if err := sys.Engine.CheckInvariants(); err != nil {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %v\n", err)
		return 1
	}
	fmt.Println("invariants: ok")
	return 0
}
