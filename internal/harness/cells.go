package harness

import (
	"context"
	"fmt"
	"io"
)

// This file enumerates an experiment's cells and runs or renders a
// chosen subset of them. A cell is one job of one of the experiment's
// grids (sweep.go). Every experiment builds all of its grids before it
// reads any, and a grid submits its jobs in row-major order, so the
// cells a run submits, in order and with their labels, are a pure
// function of the result-shaping Options and never of a simulation
// result. Two guarantees rest on that invariant:
//
//   - Cells enumerates, without running anything, exactly the cells a
//     real run submits, so `run -resume` verifies a checkpoint against
//     this build's grid (CheckpointState.VerifyGrid) and refuses one
//     that holds cells the build no longer submits;
//   - a cell's identity (scope, submission number, unit label) is the
//     same in every run at any -workers, so a resumed run finds each
//     recorded cell under the key the interrupted run stored it with.
//
// ExecuteSelected runs a subset of the cells into a checkpoint, and
// RenderFromCheckpoint renders the full output from recorded cells
// without simulating; internal/serve builds on both.

// CellID identifies one schedulable cell of an experiment: the
// experiment (Scope), the pool submission number (Seq — deterministic,
// because submission order is program order), and the unit label as a
// cross-check against grid drift between builds.
type CellID struct {
	Scope string `json:"scope"`
	Seq   int    `json:"seq"`
	Unit  string `json:"unit"`
}

// Key returns the checkpoint cell key ("<scope>#<seq>") this cell's
// result is stored under.
func (c CellID) Key() string { return cellKey(c.Scope, c.Seq) }

// String renders the cell for error messages and listings.
func (c CellID) String() string { return fmt.Sprintf("%s#%d (%s)", c.Scope, c.Seq, c.Unit) }

// Cells enumerates the experiment's cell grid for the given options
// without executing any simulation: every submitted job is recorded and
// resolved with a zero value, and the (discarded) output is rendered
// from those zeros. Worker count, progress, and checkpoint options are
// ignored — the grid depends only on the result-shaping options (scale,
// accesses, seed, quick).
func (e Experiment) Cells(o Options) ([]CellID, error) {
	var grid []CellID
	p := NewPool(context.Background(), 1, nil, e.ID)
	p.EnableEnumerate(func(seq int, unit string) {
		grid = append(grid, CellID{Scope: e.ID, Seq: seq, Unit: unit})
	})
	o.Workers = 1
	o.Progress = nil
	o.Checkpoint = nil
	o.pool = p
	if err := e.Run(o, io.Discard); err != nil {
		return nil, fmt.Errorf("harness: enumerating %s cells: %w", e.ID, err)
	}
	return grid, nil
}

// ExecuteSelected runs only the cells sel reports true for, recording
// their results into cs (in the same cell format Execute's checkpoint
// path uses, so cs.Export ships them and RenderFromCheckpoint serves
// them). Unselected cells resolve as zero-value skips without
// executing; output is discarded — a worker computes values, it does
// not render tables. The returned error reflects only the selected
// cells (panics recovered, cancellation propagated).
func (e Experiment) ExecuteSelected(ctx context.Context, o Options, sel func(CellID) bool, cs *CheckpointState) error {
	o.Checkpoint = cs
	p := NewRunPool(ctx, o, e.ID)
	p.EnableGate(func(seq int, unit string) (bool, error) {
		return sel(CellID{Scope: e.ID, Seq: seq, Unit: unit}), nil
	})
	o.pool = p
	err := e.Run(o, io.Discard)
	if err == nil {
		err = p.FailureSummary()
	}
	return err
}

// RenderFromCheckpoint renders the experiment's full output from
// recorded cells, executing nothing: every completed cell is served
// from cs, and a cell listed in stub (keyed by CellID.Key) resolves to
// a failure carrying its recorded message, so degraded campaigns render
// ERR cells exactly where a serial run would. A cell that is in neither
// cs nor stub resolves as a missing-result failure rather than
// silently executing on the rendering process. The returned error is
// nil only when every cell was served from cs.
func (e Experiment) RenderFromCheckpoint(o Options, cs *CheckpointState, stub map[string]string, w io.Writer) error {
	p := NewPool(context.Background(), 1, nil, e.ID)
	p.EnableCheckpoint(cs, e.ID)
	p.EnableGate(func(seq int, unit string) (bool, error) {
		id := CellID{Scope: e.ID, Seq: seq, Unit: unit}
		if msg, ok := stub[id.Key()]; ok {
			return false, fmt.Errorf("%s", msg)
		}
		return false, fmt.Errorf("cell %s has no recorded result", id)
	})
	o.Workers = 1
	o.Progress = nil
	o.pool = p
	err := e.Run(o, w)
	if err == nil {
		err = p.FailureSummary()
	}
	return err
}
