package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	o := harness.DefaultOptions()
	o.Accesses = 60000
	o.CrashDir = ""
	fs.IntVar(&o.Scale, "scale", o.Scale, "capacity scale divisor")
	fs.IntVar(&o.Accesses, "accesses", o.Accesses, "memory accesses per core")
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed")
	configs := fs.String("configs", "baseline:1,zerodev:0",
		"comma-separated kind:ratio list (kinds: baseline, zerodev, unbounded, secdir, mgd)")
	mode := fs.String("mode", "noninclusive", "noninclusive | epd | inclusive")
	fs.IntVar(&o.Workers, "workers", o.Workers,
		"parallel simulation workers (1 = serial; output is identical either way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "compare: exactly one application name required")
		return 2
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	// Parse every config before simulating so flag errors surface
	// immediately.
	names, specs, err := compareSpecs(config.TableI(o.Scale), *configs, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	prof, err := workload.Get(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// No checkpoint and quiet: compare writes only its table.
	e := harness.Experiment{ID: "compare", Run: comparison{prof, names, specs}.run}
	return runExperiments(ctx, "compare", []harness.Experiment{e}, o, harness.CheckpointKey{}, "", "", true)
}

// comparison is compare's experiment: one workload under each named
// configuration.
type comparison struct {
	prof  workload.Profile
	names []string
	specs []core.SystemSpec
}

// run submits one job per configuration in flag order and renders the
// metrics side by side, so the table is identical for any worker count.
// A failed configuration prints its CellText in its column, and a
// failed first configuration in every speedup cell too.
func (c comparison) run(o harness.Options, w io.Writer) error {
	runs := make([]stats.Run, len(c.specs))
	errs := make([]error, len(c.specs))
	futs := make([]*harness.Future[stats.Run], len(c.specs))
	for i, spec := range c.specs {
		futs[i] = harness.SubmitJob(o.Pool(), c.names[i], func(ctx context.Context) (stats.Run, error) {
			streams := workload.Threads(c.prof, spec.Cores, o.Accesses, o.Scale, o.Seed)
			if c.prof.Suite == "CPU2017" {
				streams = workload.Rate(c.prof, spec.Cores, o.Accesses, o.Scale, o.Seed)
			}
			sys := core.NewSystem(spec, streams)
			cycles, err := sys.RunCtx(ctx, harness.JobSteps(ctx))
			if err != nil {
				return stats.Run{}, err
			}
			if err := sys.Engine.CheckInvariants(); err != nil {
				return stats.Run{}, err
			}
			return stats.Collect(c.names[i], sys, cycles), nil
		})
	}
	for i, f := range futs {
		runs[i], errs[i] = f.Result()
	}

	t := stats.Table{
		Title:   fmt.Sprintf("%s (%d cores, %d accesses/core, scale %d)", c.prof.Name, c.specs[0].Cores, o.Accesses, o.Scale),
		Headers: append([]string{"metric"}, c.names...),
	}
	addRow := func(label string, get func(stats.Run) string) {
		cells := []string{label}
		for i, r := range runs {
			if errs[i] != nil {
				cells = append(cells, harness.CellText(errs[i]))
			} else {
				cells = append(cells, get(r))
			}
		}
		t.AddRow(cells...)
	}
	addRow("speedup vs first", func(r stats.Run) string {
		if errs[0] != nil {
			return harness.CellText(errs[0])
		}
		if c.prof.Suite == "CPU2017" {
			return fmt.Sprintf("%.3f", stats.WeightedSpeedup(runs[0], r))
		}
		return fmt.Sprintf("%.3f", stats.Speedup(runs[0], r))
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
	t.Fprint(w)
	return errors.Join(errs...)
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
