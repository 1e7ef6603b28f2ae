package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceCmd records synthetic workloads to trace files, inspects them,
// and replays them through a configuration — the decoupled-workload
// path described in package trace.
func traceCmd(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	record := fs.String("record", "", "application to record (one file per thread)")
	dir := fs.String("dir", "traces", "trace directory")
	threads := fs.Int("threads", 8, "thread count to record")
	accesses := fs.Int("accesses", 100000, "accesses per thread")
	scale := fs.Int("scale", 8, "capacity scale divisor")
	seed := fs.Uint64("seed", 1, "workload seed")
	info := fs.String("info", "", "trace file to summarize")
	replay := fs.String("replay", "", "trace directory to replay (one file per core)")
	cfg := fs.String("config", "zerodev", "replay configuration: baseline | zerodev")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Same pre-flight validation run/single/audit perform: reject bad
	// scale/accesses combinations and an unknown -config before any file
	// or simulation work.
	if err := (harness.Options{Scale: *scale, Accesses: *accesses, Workers: 1}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 2
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "trace: -threads must be at least 1, got %d\n", *threads)
		return 2
	}
	spec, err := replaySpec(config.TableI(*scale), *cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 2
	}

	switch {
	case *record != "":
		err = recordTraces(*record, *dir, *threads, *accesses, *scale, *seed)
	case *info != "":
		err = traceInfo(*info)
	case *replay != "":
		err = replayTraces(spec, *replay)
	default:
		fmt.Fprintln(os.Stderr, "trace: one of -record, -info, -replay required")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	return 0
}

// recordTraces writes one trace file per thread of application app
// under dir.
func recordTraces(app, dir string, threads, accesses, scale int, seed uint64) error {
	prof, err := workload.Get(app)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range workload.Threads(prof, threads, accesses, scale, seed) {
		path := filepath.Join(dir, fmt.Sprintf("%s.t%02d.ztr", prof.Name, i))
		n, err := recordTrace(path, s)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d accesses\n", path, n)
	}
	return nil
}

// recordTrace writes s to path atomically: a kill mid-record leaves the
// previous trace (or nothing), never a truncated .ztr that replays
// short.
func recordTrace(path string, s cpu.Stream) (uint64, error) {
	f, err := atomicio.Create(path)
	if err != nil {
		return 0, err
	}
	var n uint64
	w, err := trace.NewWriter(f)
	if err == nil {
		n, err = trace.Record(w, s, -1)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		f.Discard()
		return 0, err
	}
	return n, f.Close()
}

// traceInfo summarizes one trace file.
func traceInfo(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var loads, stores, ifetches, instrs uint64
	blocks := map[uint64]bool{}
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		instrs += uint64(a.Gap) + 1
		blocks[uint64(a.Addr)] = true
		switch a.Kind {
		case cpu.Load:
			loads++
		case cpu.Store:
			stores++
		case cpu.Ifetch:
			ifetches++
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	total := loads + stores + ifetches
	fmt.Printf("%s: %d accesses (%d loads, %d stores, %d ifetches), %d instructions, %d distinct blocks (%.1f KB footprint)\n",
		path, total, loads, stores, ifetches, instrs, len(blocks), float64(len(blocks))*64/1024)
	return nil
}

// replayTraces runs one trace file per core from dir through spec and
// checks the invariants. Every file it opens is closed when it returns.
func replayTraces(spec core.SystemSpec, dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "*.ztr"))
	if err != nil || len(matches) == 0 {
		return fmt.Errorf("no .ztr files under %s", dir)
	}
	if len(matches) != spec.Cores {
		return fmt.Errorf("need %d trace files (one per core), found %d", spec.Cores, len(matches))
	}
	streams := make([]cpu.Stream, spec.Cores)
	for i, m := range matches {
		f, err := os.Open(m)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		streams[i] = r
	}
	sys := core.NewSystem(spec, streams)
	cycles := sys.Run()
	run := stats.Collect("replay", sys, cycles)
	fmt.Printf("replayed %d cores from %s: cycles=%d misses=%d DEVs=%d traffic=%d bytes\n",
		spec.Cores, dir, cycles, run.CoreCacheMisses(), run.Engine.DEVs, run.Traffic.TotalBytes())
	if err := sys.Engine.CheckInvariants(); err != nil {
		return err
	}
	fmt.Println("invariants: ok")
	return nil
}

// replaySpec builds the system trace -replay runs from its -config value,
// refusing a value that names neither configuration.
func replaySpec(pre config.Preset, cfg string) (core.SystemSpec, error) {
	switch strings.ToLower(cfg) {
	case "baseline":
		return pre.Baseline(1, llc.NonInclusive), nil
	case "zerodev":
		return pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive), nil
	}
	return core.SystemSpec{}, fmt.Errorf("unknown -config %q (want baseline or zerodev)", cfg)
}
