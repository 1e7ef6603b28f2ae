package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/harness"
)

// cellBackends returns the distinct backend IDs of the selected cells,
// in cell order — the set an explicit -faults selection must be able to
// fire against.
func cellBackends(cells []faults.Campaign) []backend.ID {
	seen := make(map[backend.ID]bool)
	var out []backend.ID
	for _, c := range cells {
		id := c.Backend
		if id == "" {
			id = backend.ZeroDEV
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// auditCmd runs the fault-injection campaigns of internal/faults: every
// selected injector firing against every selected campaign cell, with
// the invariant auditor running every -audit-every scheduler steps.
func auditCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	o := harness.DefaultOptions()
	o.Accesses = 20000
	fs.IntVar(&o.Scale, "scale", o.Scale, "capacity scale divisor (power of two; 1 = Table I)")
	fs.IntVar(&o.Accesses, "accesses", o.Accesses, "memory accesses per core")
	var seed uint64
	fs.Uint64Var(&seed, "seed", 1, "campaign seed (workloads and fault sequence)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "parallel campaign cells (output is identical at any value)")
	fs.StringVar(&o.CrashDir, "crash", o.CrashDir, "directory for panic replay bundles (\"\" disables)")
	fs.DurationVar(&o.JobTimeout, "job-timeout", 0, "per-cell watchdog: cancel a cell running longer than this, dump diagnostics, record TIMEOUT (0 = off)")
	ckptPath := fs.String("checkpoint", filepath.Join("results", "checkpoint", "audit.json"),
		"where completed cells are persisted for -resume (\"\" disables checkpointing)")
	resume := fs.String("resume", "", "resume from a checkpoint file: completed cells are served from it instead of re-running")
	quiet := fs.Bool("quiet", false, "suppress progress and timing lines on stderr")
	kinds := fs.String("faults", "all", "comma-separated injector kinds (see -list)")
	auditEvery := fs.Int("audit-every", 1000, "run the invariant auditor every N scheduler steps (0 = only at completion)")
	campaigns := fs.String("campaigns", "all", "comma-separated campaign cells (see -list)")
	fs.StringVar(&o.Backends, "backend", "all", "comma-separated protocol backends to audit (see -list)")
	rateScale := fs.Float64("rate-scale", 1, "multiply every injector's default rate")
	list := fs.Bool("list", false, "describe injectors and campaign cells, then exit")
	prof := addProfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		faults.WriteList(os.Stdout)
		return 0
	}
	stopProf, err := prof.start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		return 2
	}
	defer stopProf()
	o.Seed = seed
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		return 2
	}
	if *auditEvery < 0 {
		fmt.Fprintf(os.Stderr, "audit: -audit-every must be non-negative, got %d\n", *auditEvery)
		return 2
	}
	// Negated so NaN, which fails every comparison, is refused too: it
	// would make every rate NaN and run an inert campaign reported clean.
	if !(*rateScale >= 0) {
		fmt.Fprintf(os.Stderr, "audit: -rate-scale must be a number of at least 0, got %g\n", *rateScale)
		return 2
	}
	cfg := faults.DefaultConfig()
	cfg.AuditEvery = *auditEvery
	cfg.RateScale = *rateScale
	if cfg.Enabled, err = faults.ParseKinds(*kinds); err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		return 2
	}
	cells, err := faults.SelectCampaigns(*campaigns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		return 2
	}
	cells = faults.FilterByBackend(cells, o.BackendIDs())
	if len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "audit: the -campaigns/-backend selection leaves no cells to run")
		return 2
	}
	// An explicitly selected injector that cannot fire on any selected
	// backend would run an inert campaign and report it clean; refuse the
	// combination by name instead ("all" is intersected per cell).
	if *kinds != "all" {
		if err := faults.ValidateKinds(cfg.Enabled, cellBackends(cells)); err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			return 2
		}
	}
	var ids []string
	for _, c := range cells {
		ids = append(ids, c.Name)
	}
	key := harness.CheckpointKey{
		Kind: "audit", IDs: ids,
		Scale: o.Scale, Accesses: o.Accesses, Seed: o.Seed,
		Faults: cfg.CheckpointTag(),
	}
	return runExperiments(ctx, "audit", []harness.Experiment{faults.Audit(cfg, cells)}, o, key, *ckptPath, *resume, *quiet)
}
