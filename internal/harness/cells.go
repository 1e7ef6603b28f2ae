package harness

import (
	"context"
	"fmt"
	"io"
)

// This file is the cell decomposition surface the campaign service
// (internal/serve) builds on. An experiment's execution decomposes into
// cells — the independent (unit, config) simulation jobs it submits to
// its pool — and the decomposition is a pure function of the Options:
// experiments submit every job up front from option-derived sweeps and
// only then wait on results, so the grid enumerated here (without
// running anything) is exactly the grid a real run executes. That makes
// three operations safe:
//
//   - Cells enumerates the grid so a coordinator can shard it;
//   - ExecuteSelected runs an arbitrary subset on a worker, recording
//     results in the checkpoint cell format;
//   - RenderFromCheckpoint replays the experiment's full output from
//     recorded cells without executing a single simulation, which is
//     how sharded results reassemble into output byte-identical to a
//     serial `zerodev run`.
//
// Deterministic cell identity (scope, seq, unit) plus deterministic
// cell content (every cell value is a pure function of Options and the
// unit) means results computed by any process are interchangeable.

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
	p := NewPool(ctx, o.Workers, o.Progress, e.ID)
	p.EnableRecovery(ReplayMeta{
		Experiment: e.ID,
		Scale:      o.Scale,
		Accesses:   o.Accesses,
		Seed:       o.Seed,
		Quick:      o.Quick,
		Workers:    o.Workers,
		Backends:   o.Backends,
	}, o.CrashDir, o.Retries)
	p.EnableWatchdog(o.JobTimeout)
	p.EnableCheckpoint(cs, e.ID)
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
