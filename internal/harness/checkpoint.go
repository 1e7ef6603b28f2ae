package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicio"
)

// CheckpointVersion stamps checkpoint files; bump on incompatible
// format changes so a stale checkpoint is refused with a clear error
// instead of silently misdecoded. Version 2 stores every simulation
// cell as one stats.Run.
const CheckpointVersion = 2

// CheckpointKey fingerprints everything that shapes cell results, so a
// checkpoint is only ever replayed against the run that produced it.
// Workers is deliberately excluded: output is byte-identical at any
// worker count (the engine's core invariant), so a run interrupted at
// -workers 8 may resume at -workers 1 and vice versa.
type CheckpointKey struct {
	// Kind is the command family ("run", "audit"): their cell spaces are
	// disjoint, and a run checkpoint must never satisfy an audit.
	Kind string `json:"kind"`
	// IDs are the experiment (or campaign) IDs in execution order.
	IDs      []string `json:"ids"`
	Scale    int      `json:"scale"`
	Accesses int      `json:"accesses"`
	Seed     uint64   `json:"seed"`
	Quick    bool     `json:"quick,omitempty"`
	// Backends is the raw backend selection (Options.Backends). It
	// shapes the backend-axis cell grids; omitempty keeps fingerprints
	// of runs that never set it identical to pre-backend checkpoints.
	Backends string `json:"backends,omitempty"`
	// Faults is audit's fault configuration (faults.Config.CheckpointTag:
	// enabled injectors, audit interval, rate scale), which shapes every
	// audit cell. omitempty keeps run fingerprints unchanged.
	Faults string `json:"faults,omitempty"`
}

// Fingerprint hashes the key with FNV-64a over its canonical JSON.
func (k CheckpointKey) Fingerprint() uint64 {
	b, err := json.Marshal(k)
	if err != nil {
		// CheckpointKey is all plain data; Marshal cannot fail.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkpointFile is the on-disk format: the versioned header binds the
// cells to a specific run shape, and Sum guards against torn or edited
// files (the atomic writer makes tearing unlikely, but a checkpoint
// that fails its own content hash must never seed a resume).
type checkpointFile struct {
	Version     int                        `json:"version"`
	Key         CheckpointKey              `json:"key"`
	Fingerprint uint64                     `json:"fingerprint"`
	Cells       map[string]json.RawMessage `json:"cells"`
	Sum         uint64                     `json:"sum"`
}

// contentSum hashes the cells in sorted key order with FNV-64a. Each
// value is compacted first so the sum is a function of the JSON
// content, not of the indentation Save's pretty-printer (or a decode
// round-trip) happens to leave in the raw bytes.
func contentSum(cells map[string]json.RawMessage) uint64 {
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var compact bytes.Buffer
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		compact.Reset()
		if err := json.Compact(&compact, cells[k]); err == nil {
			h.Write(compact.Bytes())
		} else {
			h.Write(cells[k])
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// CheckpointState is the in-memory checkpoint a run builds up and an
// interrupted run resumes from. Cells are keyed "<scope>#<seq>" where
// scope is the experiment/campaign ID and seq is the pool submission
// number — deterministic because submission order is program order. The
// unit label rides along as a cross-check against submission-order
// drift between builds.
type CheckpointState struct {
	key CheckpointKey

	mu    sync.Mutex
	cells map[string]json.RawMessage
	units map[string]string
}

// cellRecord wraps a stored cell with its unit label.
type cellRecord struct {
	Unit  string          `json:"unit,omitempty"`
	Value json.RawMessage `json:"value"`
}

// NewCheckpoint returns an empty checkpoint for the given run shape.
func NewCheckpoint(key CheckpointKey) *CheckpointState {
	return &CheckpointState{
		key:   key,
		cells: make(map[string]json.RawMessage),
		units: make(map[string]string),
	}
}

// Cells reports how many completed cells the checkpoint holds.
func (cs *CheckpointState) Cells() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.cells)
}

func cellKey(scope string, seq int) string {
	return fmt.Sprintf("%s#%d", scope, seq)
}

// store records a completed cell. Marshal failures are swallowed: a
// value that cannot round-trip is simply not checkpointed (the run
// still completes; only resume granularity suffers).
func (cs *CheckpointState) store(scope string, seq int, unit string, v any) {
	val, err := json.Marshal(v)
	if err != nil {
		return
	}
	raw, err := json.Marshal(cellRecord{Unit: unit, Value: val})
	if err != nil {
		return
	}
	cs.mu.Lock()
	cs.cells[cellKey(scope, seq)] = raw
	cs.units[cellKey(scope, seq)] = unit
	cs.mu.Unlock()
}

// lookup serves a cell from the checkpoint: true means out holds the
// recorded value. A unit-label mismatch is treated as a miss (the
// submission order drifted; re-running is always safe), and so is a
// value carrying fields out's type lacks: it was recorded under another
// cell shape, and a lenient decode would serve it with out's other
// fields zeroed.
func (cs *CheckpointState) lookup(scope string, seq int, unit string, out any) bool {
	cs.mu.Lock()
	raw, ok := cs.cells[cellKey(scope, seq)]
	cs.mu.Unlock()
	if !ok {
		return false
	}
	var rec cellRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return false
	}
	if rec.Unit != unit {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(rec.Value))
	dec.DisallowUnknownFields()
	return dec.Decode(out) == nil
}

// Export returns a copy of the raw completed cells, keyed
// "<scope>#<seq>". Each value is a self-contained cell record (unit
// label plus result JSON) that Merge on any other CheckpointState
// accepts verbatim — this is the transport format the campaign service
// uses to ship a worker's computed cells back to the coordinator.
func (cs *CheckpointState) Export() map[string]json.RawMessage {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]json.RawMessage, len(cs.cells))
	for k, v := range cs.cells {
		out[k] = v
	}
	return out
}

// Merge adds raw cell records (as produced by Export) to the
// checkpoint, overwriting any existing entries with the same key.
// Records that do not decode are skipped: a malformed cell must surface
// as a miss (and re-run), never as a wrong answer.
func (cs *CheckpointState) Merge(cells map[string]json.RawMessage) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for k, raw := range cells {
		var rec cellRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue
		}
		cs.cells[k] = raw
		cs.units[k] = rec.Unit
	}
}

// VerifyGrid checks every stored cell against the current run's cell
// grid and refuses — naming each offending cell — a checkpoint holding
// cells the grid no longer generates, or cells whose recorded unit
// label drifted from the grid's. Silently ignoring such cells would
// mask a real mismatch between the checkpoint and the code about to
// resume from it (a renamed unit, a reordered sweep, a hand-merged
// file), so the resume path rejects them by name instead.
func (cs *CheckpointState) VerifyGrid(grid []CellID) error {
	expected := make(map[string]string, len(grid))
	for _, c := range grid {
		expected[c.Key()] = c.Unit
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var bad []string
	for key := range cs.cells {
		unit, ok := expected[key]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s (unit %q)", key, cs.units[key]))
		case cs.units[key] != unit:
			bad = append(bad, fmt.Sprintf("%s (unit %q, grid has %q)", key, cs.units[key], unit))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	const show = 8
	listed := bad
	suffix := ""
	if len(bad) > show {
		listed = bad[:show]
		suffix = fmt.Sprintf(", and %d more", len(bad)-show)
	}
	return fmt.Errorf("harness: checkpoint holds %d cell(s) the current run does not generate: %s%s (the cell grid changed; re-run without -resume)",
		len(bad), strings.Join(listed, ", "), suffix)
}

// Save atomically persists the checkpoint to path: a crash or kill
// during Save leaves either the previous checkpoint or the new one,
// never a torn file.
func (cs *CheckpointState) Save(path string) error {
	cs.mu.Lock()
	cells := make(map[string]json.RawMessage, len(cs.cells))
	for k, v := range cs.cells {
		cells[k] = v
	}
	cs.mu.Unlock()
	f := checkpointFile{
		Version:     CheckpointVersion,
		Key:         cs.key,
		Fingerprint: cs.key.Fingerprint(),
		Cells:       cells,
		Sum:         contentSum(cells),
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encoding checkpoint: %w", err)
	}
	return atomicio.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadCheckpoint reads and validates a checkpoint for the given run
// shape. It refuses — with errors naming the exact mismatch — files of
// a different version, files whose fingerprint does not match key
// (different experiments, scale, accesses, seed, quick mode, or audit
// fault configuration), and files whose content hash fails (torn or
// hand-edited).
func LoadCheckpoint(path string, key CheckpointKey) (*CheckpointState, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: reading checkpoint: %w", err)
	}
	// Version first, loosely: a future-version file should say
	// "version 2" rather than fail on a field this build doesn't know.
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(buf, &head); err != nil {
		return nil, fmt.Errorf("harness: %s is not a checkpoint: %w", path, err)
	}
	if head.Version != CheckpointVersion {
		return nil, fmt.Errorf("harness: checkpoint %s has version %d, this build reads %d", path, head.Version, CheckpointVersion)
	}
	var f checkpointFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("harness: decoding checkpoint %s: %w", path, err)
	}
	want := key.Fingerprint()
	if f.Fingerprint != want {
		return nil, fmt.Errorf("harness: checkpoint %s was written by a different run (fingerprint %016x, this invocation %016x): it covers kind=%q ids=%v scale=%d accesses=%d seed=%d quick=%v faults=%q",
			path, f.Fingerprint, want, f.Key.Kind, f.Key.IDs, f.Key.Scale, f.Key.Accesses, f.Key.Seed, f.Key.Quick, f.Key.Faults)
	}
	if got := contentSum(f.Cells); got != f.Sum {
		return nil, fmt.Errorf("harness: checkpoint %s failed its content hash (stored %016x, computed %016x): file is torn or was edited", path, f.Sum, got)
	}
	cs := NewCheckpoint(key)
	cs.cells = f.Cells
	if cs.cells == nil {
		cs.cells = make(map[string]json.RawMessage)
	}
	for k, raw := range cs.cells {
		var rec cellRecord
		if err := json.Unmarshal(raw, &rec); err == nil {
			cs.units[k] = rec.Unit
		}
	}
	return cs, nil
}
