// Package serve implements a fault-tolerant campaign service: a
// coordinator that leases cells to workers over HTTP. No command wires
// it up — `zerodev run -workers N -resume` is the one way to run and
// resume a campaign, having measured faster than this service on the
// same host (DESIGN.md §10) — and the package stays only until its
// deletion, tracked in ROADMAP.md, lands.
//
// The coordinator accepts campaign specs over an HTTP/JSON API,
// decomposes each into cells by reusing the harness's deterministic
// job decomposition (harness.Experiment.Cells), and hands cells out to
// workers under time-bounded leases with heartbeat renewal. The service
// layer is deliberately dumb about simulation: PR 4's deterministic
// cell identity — a cell's value is a pure function of (experiment,
// options, unit) — means any worker's result for a cell is
// interchangeable with any other's, so the coordinator only has to be
// robust, never clever:
//
//   - a lease that expires (worker death, stall, partition) re-queues
//     its cell with exponential backoff plus seeded jitter;
//   - a cell that exhausts its retry budget degrades to a failed (ERR)
//     cell instead of wedging the campaign, reusing the harness's
//     JobError/CellText semantics at render time;
//   - a result delivered twice, late, or under a stale lease is
//     deduplicated: the first delivery wins and every later one is
//     counted but ignored (exactly-once cell accounting);
//   - identical (config, seed) cells across campaigns are served from a
//     content-hash result cache without re-running;
//   - durable state (specs, cell table, completed values) persists
//     through internal/atomicio, so a coordinator crash resumes: on
//     restart, leased cells re-queue and finished work is kept.
//
// When every cell of a campaign is done or failed, the coordinator
// assembles the final output by replaying the experiments from the
// recorded cells (harness.Experiment.RenderFromCheckpoint) — no
// simulation runs at assembly, and the output is byte-identical to a
// serial `zerodev run` of the same spec (the kill/recover equivalence
// tests enforce this at 1, 2, and 4 workers, under -race).
//
// The lease/retry policy lives entirely in the Coordinator's cell state
// machine, orthogonal to both the simulation engine and the HTTP
// transport; the Planner seam separates service robustness from the
// harness so the chaos tests can drive the full lease machinery over a
// synthetic grid. DESIGN.md §10 documents the state machine and the
// exactly-once argument.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
)

// Spec is a submitted campaign: which experiments to run and the
// result-shaping options. It is the wire format of POST /v1/campaigns
// and the worker's instruction for rebuilding identical Options.
type Spec struct {
	Experiments []string `json:"experiments"`
	Scale       int      `json:"scale"`
	Accesses    int      `json:"accesses"`
	Seed        uint64   `json:"seed"`
	Quick       bool     `json:"quick,omitempty"`
	// Backends is the protocol-backend selection for backend-axis
	// experiments ("" = all). It shapes those experiments' cell grids,
	// so it rides the spec: planner, workers, and assembler all rebuild
	// the same grid from it.
	Backends string `json:"backends,omitempty"`
}

// Options maps the spec to harness options for planning, worker
// execution, and assembly. Concurrency, progress, and crash-artifact
// options are the caller's business; everything that shapes results
// comes from the spec.
func (s Spec) Options() harness.Options {
	return harness.Options{
		Scale:    s.Scale,
		Accesses: s.Accesses,
		Seed:     s.Seed,
		Quick:    s.Quick,
		Backends: s.Backends,
		Workers:  1,
	}
}

// Validate rejects specs that could not have come from a correct
// client: unknown experiments and option values the harness would
// refuse.
func (s Spec) Validate() error {
	if len(s.Experiments) == 0 {
		return fmt.Errorf("serve: spec names no experiments")
	}
	seen := make(map[string]bool, len(s.Experiments))
	for _, id := range s.Experiments {
		if _, err := harness.Get(id); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if seen[id] {
			return fmt.Errorf("serve: spec lists experiment %q twice", id)
		}
		seen[id] = true
	}
	if err := s.Options().Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// String renders the spec for listings.
func (s Spec) String() string {
	q := ""
	if s.Quick {
		q = ", quick"
	}
	return fmt.Sprintf("%v (scale %d, accesses %d, seed %d%s)", s.Experiments, s.Scale, s.Accesses, s.Seed, q)
}

// Config tunes the coordinator's lease and retry policy.
type Config struct {
	// LeaseTTL bounds how long a granted cell may go without a
	// heartbeat before it is re-queued.
	LeaseTTL time.Duration
	// RetryBudget is how many extra attempts a cell gets after its
	// first before it degrades to a failed (ERR) cell: a cell is
	// granted or failure-reported at most RetryBudget+1 times.
	RetryBudget int
	// BackoffBase and BackoffMax bound the exponential re-queue delay:
	// attempt n waits min(BackoffBase<<(n-1), BackoffMax) plus jitter in
	// [0, BackoffBase/2) drawn from the coordinator's seeded RNG.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives backoff jitter (and nothing else); fixed seeds make
	// re-queue schedules reproducible in tests.
	Seed uint64
	// StatePath, when non-empty, persists coordinator state atomically
	// after every durable transition (campaign submitted, cell finished
	// or degraded, output assembled); a coordinator restarted with the
	// same path resumes, re-queueing cells that were leased at the
	// crash.
	StatePath string
	// Clock supplies the current time (nil = time.Now). Tests inject a
	// fake clock to step lease expiry deterministically.
	Clock func() time.Time
	// Planner supplies cell decomposition and output assembly (nil =
	// the harness-backed planner). The chaos tests substitute a
	// synthetic grid to exercise the lease machinery in isolation.
	Planner Planner
	// Chaos, when non-nil, injects service-layer faults (duplicate
	// lease grants) inside the coordinator; production leaves it nil.
	Chaos *faults.ServiceChaos
}

// DefaultConfig returns production lease policy: 30s leases, 3 retries,
// 1s base backoff capped at 1m.
func DefaultConfig() Config {
	return Config{
		LeaseTTL:    30 * time.Second,
		RetryBudget: 3,
		BackoffBase: time.Second,
		BackoffMax:  time.Minute,
		Seed:        1,
	}
}

// withDefaults fills zero fields so a partially-specified config (tests
// often set only what they constrain) behaves sanely.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = d.LeaseTTL
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = d.BackoffMax
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Planner == nil {
		c.Planner = HarnessPlanner{}
	}
	return c
}

// --- wire types --------------------------------------------------------------

// SubmitResponse answers POST /v1/campaigns.
type SubmitResponse struct {
	ID        string `json:"id"`
	Cells     int    `json:"cells"`
	CacheHits int    `json:"cache_hits"`
}

// LeaseRequest asks for work (POST /v1/lease).
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Grant is a leased cell: everything a worker needs to compute the
// result (the spec rebuilds identical Options; the cell selects the
// job) plus the lease to renew and complete under.
type Grant struct {
	LeaseID  string         `json:"lease_id"`
	Campaign string         `json:"campaign"`
	Cell     harness.CellID `json:"cell"`
	Spec     Spec           `json:"spec"`
	TTLMS    int64          `json:"ttl_ms"`
}

// RenewRequest heartbeats a lease (POST /v1/lease/renew).
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
}

// CompleteRequest delivers a cell outcome (POST /v1/lease/complete):
// either Value (the raw checkpoint cell record from
// harness.CheckpointState.Export) or Err (the execution failure).
// Campaign and Key identify the cell independently of the lease so
// late deliveries under expired leases can still be credited.
type CompleteRequest struct {
	LeaseID  string          `json:"lease_id"`
	Campaign string          `json:"campaign"`
	Key      string          `json:"key"`
	Unit     string          `json:"unit"`
	Value    json.RawMessage `json:"value,omitempty"`
	Err      string          `json:"err,omitempty"`
}

// CompleteStatus classifies what the coordinator did with a delivery.
type CompleteStatus string

const (
	// CompleteRecorded: the value was accepted and the cell is done.
	CompleteRecorded CompleteStatus = "recorded"
	// CompleteStaleRecorded: the lease was expired or superseded but the
	// cell still needed a result, so the (deterministic, therefore
	// valid) value was accepted anyway.
	CompleteStaleRecorded CompleteStatus = "stale-recorded"
	// CompleteDuplicate: the cell already had a result; this delivery
	// was counted and ignored.
	CompleteDuplicate CompleteStatus = "duplicate"
	// CompleteRetried: the worker reported a failure and the cell was
	// re-queued under backoff.
	CompleteRetried CompleteStatus = "retried"
	// CompleteDegraded: the worker reported a failure and the cell's
	// retry budget is exhausted; it is now a failed (ERR) cell.
	CompleteDegraded CompleteStatus = "degraded"
	// CompleteIgnored: the delivery referenced a finished or unknown
	// cell/lease in a way that needed no action.
	CompleteIgnored CompleteStatus = "ignored"
)

// CompleteResponse answers POST /v1/lease/complete.
type CompleteResponse struct {
	Status CompleteStatus `json:"status"`
}

// CellFailure describes one degraded cell in a campaign status.
type CellFailure struct {
	Cell string `json:"cell"`
	Unit string `json:"unit"`
	Err  string `json:"err"`
}

// CampaignStatus answers GET /v1/campaigns/{id}.
type CampaignStatus struct {
	ID        string        `json:"id"`
	Spec      Spec          `json:"spec"`
	State     string        `json:"state"` // running | complete | degraded
	Total     int           `json:"total"`
	Done      int           `json:"done"`
	Failed    int           `json:"failed"`
	Leased    int           `json:"leased"`
	Pending   int           `json:"pending"`
	CacheHits int           `json:"cache_hits"`
	Failures  []CellFailure `json:"failures,omitempty"`
	// Output is the assembled campaign output, present once the
	// campaign reaches a terminal state. For complete campaigns it is
	// byte-identical to a serial `zerodev run` of the same spec.
	Output string `json:"output,omitempty"`
}
