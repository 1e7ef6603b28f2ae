package harness

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/socket"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The figscale figure family: the scale frontier from the classic 4×16
// shape up to 1024 cores across 16 sockets, comparing ZeroDEV(NoDir)
// against a 1/8x sparse-MESI baseline on each rung. Per-core work
// shrinks as the ladder climbs so the sweep's total access budget stays
// roughly level. Every cell is collected into a stats.Run like every
// other experiment's; per core it keeps only a cycle count.

func init() {
	register("figscale",
		"Scale frontier: DEV rate, traffic, LLC occupancy, recovery path vs core count (ZeroDEV NoDir vs sparse-MESI 1/8x)",
		figScale)
}

// scaleAccesses budgets per-core accesses for one rung: the harness
// access count is referenced to a 64-core system and divided down as
// cores grow, floored so tiny Quick budgets still exercise the sharing
// paths on the widest rungs.
func scaleAccesses(o Options, g config.Org) int {
	a := o.Accesses * 64 / g.TotalCores()
	if a < 200 {
		a = 200
	}
	return a
}

// scaleInterval is the per-core retirement interval for streamed IPC.
const scaleInterval = 1000

func runScaleOrg(ctx context.Context, o Options, g config.Org, id backend.ID, ratio float64) (stats.Run, error) {
	spec, err := g.Preset.ForBackend(id, ratio)
	if err != nil {
		return stats.Run{}, err
	}
	spec.CPU.StatInterval = scaleInterval
	p := socket.DefaultParams(g.Sockets, 65536/o.Scale*8)
	p.HomeGroups = g.HomeGroups
	p.IntraGroupCycles = 40
	prof := workload.MustGet("canneal")
	streams := workload.Threads(prof, g.TotalCores(), scaleAccesses(o, g), g.Preset.Scale, o.Seed)
	return runSockets(ctx, p, spec, streams, g.Name+"/"+string(id), true)
}

func figScale(o Options, w io.Writer) error {
	ladder := config.ScaleLadder(o.Scale)
	t := stats.Table{
		Title: "Scale frontier: ZeroDEV(NoDir) vs sparse-MESI 1/8x per organization",
		Headers: []string{"org", "cores", "speedup", "zdev-DEV/ki", "mesi-DEV/ki",
			"B/miss", "spill+fuse", "recovery", "coarse", "metaHW", "iIPC"},
	}
	arms := []struct {
		id    backend.ID
		ratio float64
	}{{backend.ZeroDEV, 0}, {backend.SparseMESI, 1.0 / 8}}
	orgs := make([]string, len(ladder))
	for i, g := range ladder {
		orgs[i] = g.Name
	}
	rungs := newGrid(o, orgs, []string{"zdev", "mesi"}, func(ctx context.Context, r, c int) (stats.Run, error) {
		return runScaleOrg(ctx, o, ladder[r], arms[c].id, arms[c].ratio)
	})
	var errs []error
	for i, g := range ladder {
		runs, err := rungs.row(i)
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(g.Name, fmt.Sprint(g.TotalCores()), cell, cell, cell, cell, cell, cell, cell, cell, cell)
			continue
		}
		zd, ms := runs[0], runs[1]
		devKI := func(r stats.Run) float64 {
			if r.CPU.Retired == 0 {
				return 0
			}
			return 1000 * float64(r.Engine.DEVs) / float64(r.CPU.Retired)
		}
		speedup := 0.0
		if zd.Cycles > 0 {
			speedup = float64(ms.Cycles) / float64(zd.Cycles)
		}
		t.AddRow(g.Name, fmt.Sprint(g.TotalCores()),
			f3(speedup), f3(devKI(zd)), f3(devKI(ms)),
			f3(zd.TrafficPerMiss()),
			fmt.Sprint(zd.LLCSpilled+zd.LLCFused),
			fmt.Sprint(zd.RecoveryEvents()),
			fmt.Sprint(zd.CoarseWrites),
			fmt.Sprint(zd.MetaHighWater),
			fmt.Sprintf("%.3f±%.3f", zd.IntervalIPC.Mean, zd.IntervalIPC.Std()))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}
