package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/llc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// compareCmd runs one workload under several named configurations and
// prints the metrics side by side — the quickstart example generalized
// to arbitrary configuration lists.
//
//	zerodev compare -configs baseline:1,zerodev:0,zerodev:0.125 canneal
func compareCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	scale := fs.Int("scale", 8, "capacity scale divisor")
	accesses := fs.Int("accesses", 60000, "memory accesses per core")
	seed := fs.Uint64("seed", 1, "workload seed")
	configs := fs.String("configs", "baseline:1,zerodev:0",
		"comma-separated kind:ratio list (kinds: baseline, zerodev, unbounded, secdir, mgd)")
	mode := fs.String("mode", "noninclusive", "noninclusive | epd | inclusive")
	workers := fs.Int("workers", harness.DefaultOptions().Workers,
		"parallel simulation workers (1 = serial; output is identical either way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "compare: exactly one application name required")
		return 2
	}
	if err := (harness.Options{Scale: *scale, Accesses: *accesses, Workers: *workers}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	pre := config.TableI(*scale)
	// Parse every config before simulating so flag errors surface
	// immediately, then submit one independent job per configuration and
	// collect results in flag order — the printed table is identical for
	// any worker count.
	names, specs, err := compareSpecs(pre, *configs, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	prof, err := workload.Get(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	type cfgResult struct {
		run stats.Run
		err error
	}
	pool := harness.NewPool(ctx, *workers, nil, "compare")
	var futs []*harness.Future[cfgResult]
	for i := range specs {
		name, sysSpec := names[i], specs[i]
		futs = append(futs, harness.Submit(pool, func(jctx context.Context) cfgResult {
			streams := workload.Threads(prof, sysSpec.Cores, *accesses, *scale, *seed)
			if prof.Suite == "CPU2017" {
				streams = workload.Rate(prof, sysSpec.Cores, *accesses, *scale, *seed)
			}
			sys := core.NewSystem(sysSpec, streams)
			cycles, err := sys.RunCtx(jctx, harness.JobSteps(jctx))
			if err != nil {
				return cfgResult{err: err}
			}
			if err := sys.Engine.CheckInvariants(); err != nil {
				return cfgResult{err: err}
			}
			return cfgResult{run: stats.Collect(name, sys, cycles)}
		}))
	}
	var runs []stats.Run
	for _, fut := range futs {
		res := fut.Wait()
		if res.err != nil {
			fmt.Fprintln(os.Stderr, res.err)
			return 1
		}
		runs = append(runs, res.run)
	}

	t := stats.Table{
		Title:   fmt.Sprintf("%s (%d cores, %d accesses/core, scale %d)", prof.Name, pre.Cores, *accesses, *scale),
		Headers: append([]string{"metric"}, names...),
	}
	addRow := func(label string, get func(stats.Run) string) {
		cells := []string{label}
		for _, r := range runs {
			cells = append(cells, get(r))
		}
		t.AddRow(cells...)
	}
	base := runs[0]
	addRow("speedup vs first", func(r stats.Run) string {
		if prof.Suite == "CPU2017" {
			return fmt.Sprintf("%.3f", stats.WeightedSpeedup(base, r))
		}
		return fmt.Sprintf("%.3f", stats.Speedup(base, r))
	})
	addRow("cycles", func(r stats.Run) string { return fmt.Sprintf("%d", r.Cycles) })
	addRow("core cache misses", func(r stats.Run) string { return fmt.Sprintf("%d", r.CoreCacheMisses()) })
	addRow("MPKI", func(r stats.Run) string { return fmt.Sprintf("%.1f", r.MPKI()) })
	addRow("interconnect bytes", func(r stats.Run) string { return fmt.Sprintf("%d", r.Traffic.TotalBytes()) })
	addRow("DEVs", func(r stats.Run) string { return fmt.Sprintf("%d", r.Engine.DEVs) })
	addRow("DE spills/fuses", func(r stats.Run) string {
		return fmt.Sprintf("%d/%d", r.Engine.DESpills, r.Engine.DEFuses)
	})
	addRow("WB_DE", func(r stats.Run) string { return fmt.Sprintf("%d", r.Engine.DEEvictionsToMemory) })
	addRow("DRAM reads/writes", func(r stats.Run) string {
		return fmt.Sprintf("%d/%d", r.DRAM.Reads, r.DRAM.Writes)
	})
	t.Fprint(os.Stdout)
	return 0
}

// compareSpecs parses the -configs list and -mode of compare into one
// named system spec per item. Each item is kind or kind:ratio; a kind,
// ratio or mode that names nothing is refused, not replaced by a default.
func compareSpecs(pre config.Preset, configs, mode string) (names []string, specs []core.SystemSpec, err error) {
	lm, err := parseMode(mode)
	if err != nil {
		return nil, nil, err
	}
	for _, item := range strings.Split(configs, ",") {
		kind, ratioStr, hasRatio := strings.Cut(strings.TrimSpace(item), ":")
		var ratio float64
		if hasRatio {
			ratio, err = strconv.ParseFloat(ratioStr, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("config %q: ratio %q is not a non-negative decimal number (e.g. 0.125)", item, ratioStr)
			}
			if err := checkRatio(ratio); err != nil {
				return nil, nil, fmt.Errorf("config %q: %w", item, err)
			}
		}
		var spec core.SystemSpec
		switch strings.ToLower(kind) {
		case "baseline":
			spec = pre.Baseline(ratio, lm)
		case "zerodev":
			spec = pre.ZeroDEV(ratio, core.FPSS, llc.DataLRU, lm)
		case "unbounded":
			spec = pre.Unbounded(lm)
		case "secdir":
			spec = pre.SecDir(ratio, lm)
		case "mgd":
			spec = pre.MgD(ratio, lm)
		default:
			return nil, nil, fmt.Errorf("unknown config kind %q (want baseline, zerodev, unbounded, secdir, or mgd)", kind)
		}
		names = append(names, item)
		specs = append(specs, spec)
	}
	return names, specs, nil
}
