package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/socket"
	"repro/internal/stats"
)

// This file is the one path every experiment submits its simulations
// through. A grid submits all of its jobs when it is built, and an
// experiment builds every grid it needs before it reads any, so the
// submission sequence, and with it every cell's checkpoint key
// (DESIGN §7), is a pure function of the Options. Results are read back
// in that same order, so the output is byte-identical at any worker
// count (DESIGN §4).

// grid is a rows × cols block of jobs on the run's pool.
type grid[T any] struct {
	futs [][]*Future[T]
}

// newGrid submits job(r, c) for every cell in row-major order, labelled
// "<rows[r]>/<cols[c]>". On a nil pool (an experiment run directly
// rather than through Execute) each job runs inline when submitted.
func newGrid[T any](o Options, rows, cols []string, job func(ctx context.Context, r, c int) (T, error)) grid[T] {
	g := grid[T]{futs: make([][]*Future[T], len(rows))}
	for r, row := range rows {
		g.futs[r] = make([]*Future[T], len(cols))
		for c, col := range cols {
			g.futs[r][c] = SubmitJob(o.pool, row+"/"+col, func(ctx context.Context) (T, error) {
				return job(ctx, r, c)
			})
		}
	}
	return g
}

// at waits for cell (r, c).
func (g grid[T]) at(r, c int) (T, error) { return g.futs[r][c].Result() }

// row waits for row r only and returns its values with the row's first
// failure (nil when every cell succeeded).
func (g grid[T]) row(r int) ([]T, error) {
	vals := make([]T, len(g.futs[r]))
	var first error
	for c := range vals {
		var err error
		vals[c], err = g.at(r, c)
		if first == nil {
			first = err
		}
	}
	return vals, first
}

// all waits for every row and returns the values with the grid's first
// failure in row-major order.
func (g grid[T]) all() ([][]T, error) {
	vals := make([][]T, len(g.futs))
	var first error
	for r := range vals {
		var err error
		vals[r], err = g.row(r)
		if first == nil {
			first = err
		}
	}
	return vals, first
}

// namedSpec pairs a configuration label with its system spec.
type namedSpec struct {
	name string
	spec core.SystemSpec
}

// unitGrid runs every unit against every named spec on one socket: cell
// (u, s) runs unit u's streams on spec s, labelled "<unit>/<spec>" as a
// job and "<spec>" as a run.
func unitGrid(o Options, units []unit, specs []namedSpec) grid[stats.Run] {
	return newGrid(o, unitNames(units), specNames(specs), func(ctx context.Context, r, c int) (stats.Run, error) {
		s := specs[c]
		return runStreams(ctx, s.spec, units[r].make(s.spec.Cores), s.name)
	})
}

// socketCol is one column of a socket grid: a spec on the multi-socket
// system p describes.
type socketCol struct {
	name string
	p    socket.Params
	spec core.SystemSpec
}

// socketGrid is unitGrid on multi-socket systems: cell (u, c) spreads
// unit u's streams across every core of column c's sockets.
func socketGrid(o Options, units []unit, cols []socketCol) grid[stats.Run] {
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.name
	}
	return newGrid(o, unitNames(units), names, func(ctx context.Context, r, c int) (stats.Run, error) {
		col := cols[c]
		return runSockets(ctx, col.p, col.spec, units[r].make(col.p.Sockets*col.spec.Cores), col.name, false)
	})
}

// sweep is a unit grid whose first column is the base spec ("base") and
// whose other columns are the configurations measured against it.
type sweep struct {
	units []unit
	ncfg  int // configurations after the base column
	g     grid[stats.Run]
}

func newSweep(o Options, units []unit, base core.SystemSpec, cfgs []namedSpec) sweep {
	specs := append([]namedSpec{{"base", base}}, cfgs...)
	return sweep{units: units, ncfg: len(cfgs), g: unitGrid(o, units, specs)}
}

// sweepResult holds per-config speedup samples over a sweep's units.
type sweepResult struct {
	speedups [][]float64 // [config][unit]
	runs     [][]stats.Run
	units    []unit
	errs     [][]error // [config][unit]; a failed base fails every config
}

// result waits for the sweep and computes each unit's unit-appropriate
// speedup per configuration. A failed unit contributes a zero sample
// and an error instead of aborting its siblings; geoCell renders such a
// config by CellText and failed() reports the joined errors.
func (s sweep) result() sweepResult {
	res := sweepResult{
		speedups: make([][]float64, s.ncfg),
		runs:     make([][]stats.Run, s.ncfg),
		units:    s.units,
		errs:     make([][]error, s.ncfg),
	}
	for ui, u := range s.units {
		base, berr := s.g.at(ui, 0)
		for ci := 0; ci < s.ncfg; ci++ {
			x, err := s.g.at(ui, ci+1)
			if berr != nil {
				err = berr
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

// sweepGroups sweeps the units of each group (a suite, or one of
// Figs. 25-27's x-axis groups) against the base spec and
// configurations. Every group is submitted before any is read.
func sweepGroups(o Options, groups []string, base core.SystemSpec, cfgs []namedSpec) []sweepResult {
	sweeps := make([]sweep, len(groups))
	for gi, group := range groups {
		sweeps[gi] = newSweep(o, groupUnits(o, group), base, cfgs)
	}
	out := make([]sweepResult, len(groups))
	for gi, s := range sweeps {
		out[gi] = s.result()
	}
	return out
}

// sweepGroup is sweepGroups for one group.
func sweepGroup(o Options, group string, base core.SystemSpec, cfgs []namedSpec) sweepResult {
	return newSweep(o, groupUnits(o, group), base, cfgs).result()
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

// addUnitRows adds one row per unit with its speedup under each config,
// then a GEOMEAN row over every unit (Figs. 19-24).
func (r sweepResult) addUnitRows(t *stats.Table) {
	for ui, u := range r.units {
		row := []string{u.name}
		for ci := range r.errs {
			if err := r.errs[ci][ui]; err != nil {
				row = append(row, CellText(err))
			} else {
				row = append(row, f3(r.speedups[ci][ui]))
			}
		}
		t.AddRow(row...)
	}
	gm := []string{"GEOMEAN"}
	for ci := range r.errs {
		gm = append(gm, r.geoCell(ci))
	}
	t.AddRow(gm...)
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
