package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// namedSpec pairs a configuration label with its system spec.
type namedSpec struct {
	name string
	spec core.SystemSpec
}

// sweepResult holds per-config speedup samples over a group's units.
type sweepResult struct {
	speedups [][]float64 // [config][unit]
	runs     [][]stats.Run
	units    []unit
	errs     [][]error // [config][unit]; a failed base fails every config
}

// sweepGroup runs every unit of a group once against the base spec and
// once per configuration, computing the unit-appropriate speedup. Each
// (unit, config) simulation is an independent job on the options'
// worker pool; results are collected in submission order, so the
// returned slices — and any output formatted from them — are identical
// for every worker count. A failed unit contributes a zero sample and
// an error instead of aborting its siblings; geoCell renders such a
// config as ERR and failed() reports the joined errors.
func sweepGroup(o Options, group string, baseSpec core.SystemSpec, cores int, cfgs []namedSpec) sweepResult {
	units := groupUnits(o, group)
	p := o.runner()
	type unitFutures struct {
		base *Future[stats.Run]
		cfg  []*Future[stats.Run]
	}
	futs := make([]unitFutures, len(units))
	for ui, u := range units {
		u := u
		futs[ui].base = SubmitJob(p, u.name+"/base", func(ctx context.Context) (stats.Run, error) {
			return runStreams(ctx, baseSpec, u.make(cores), "base")
		})
		futs[ui].cfg = make([]*Future[stats.Run], len(cfgs))
		for ci, c := range cfgs {
			c := c
			futs[ui].cfg[ci] = SubmitJob(p, u.name+"/"+c.name, func(ctx context.Context) (stats.Run, error) {
				return runStreams(ctx, c.spec, u.make(cores), c.name)
			})
		}
	}
	res := sweepResult{
		speedups: make([][]float64, len(cfgs)),
		runs:     make([][]stats.Run, len(cfgs)),
		units:    units,
		errs:     make([][]error, len(cfgs)),
	}
	for ui, u := range units {
		base, berr := futs[ui].base.Result()
		for ci := range cfgs {
			x, xerr := futs[ui].cfg[ci].Result()
			err := berr
			if err == nil {
				err = xerr
			}
			sp := 0.0
			if err == nil {
				sp = unitSpeedup(u, base, x)
			}
			res.speedups[ci] = append(res.speedups[ci], sp)
			res.runs[ci] = append(res.runs[ci], x)
			res.errs[ci] = append(res.errs[ci], err)
		}
	}
	return res
}

// geo returns the geometric mean of config ci's speedups.
func (r sweepResult) geo(ci int) float64 { return stats.GeoMean(r.speedups[ci]) }

// min returns the minimum speedup of config ci.
func (r sweepResult) min(ci int) float64 { return stats.Min(r.speedups[ci]) }

// err returns the first unit error of config ci, if any.
func (r sweepResult) err(ci int) error {
	for _, e := range r.errs[ci] {
		if e != nil {
			return e
		}
	}
	return nil
}

// geoCell formats config ci's geometric-mean cell, rendering ERR,
// TIMEOUT, or CANCELLED (per CellText) when any of its units failed.
func (r sweepResult) geoCell(ci int) string {
	if err := r.err(ci); err != nil {
		return CellText(err)
	}
	return fmt.Sprintf("%.3f", r.geo(ci))
}

// failed joins every unit error across configs (nil when all
// succeeded), deduplicating the base failures that repeat per config.
func (r sweepResult) failed() error {
	var errs []error
	seen := map[error]bool{}
	for ci := range r.errs {
		for _, e := range r.errs[ci] {
			if e != nil && !seen[e] {
				seen[e] = true
				errs = append(errs, e)
			}
		}
	}
	return errors.Join(errs...)
}
