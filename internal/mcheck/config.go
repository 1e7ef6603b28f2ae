// Package mcheck is an exhaustive protocol model checker for the
// ZeroDEV engine. It drives the *production* core.Engine — no abstract
// model — over deliberately tiny configurations (2–4 cores, a handful
// of block addresses, single-set caches so every structure conflicts
// constantly) and explores every reachable state under a bounded op
// alphabet by breadth-first search with canonical state fingerprinting.
// Every newly reached state is checked with core.CheckInvariants plus
// cross-state properties (zero-DEV, single-writer, no busy entries
// between transactions, corrupted-home recoverability); a violation is
// minimized into a short replayable counterexample trace.
//
// The engine is synchronous — each request runs its whole transaction
// atomically — so the op sequence fully determines the reached state,
// and deterministic re-execution (replaying an op prefix against a
// fresh system) doubles as the state restore mechanism. See DESIGN.md
// ("Model checking") for the fingerprint definition and the soundness
// caveats of bounded depth.
package mcheck

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/llc"
	"repro/internal/noc"
)

// MaxCores and MaxAddrs bound the tiny configurations: beyond 4×4 the
// alphabet is large enough that exhaustive depth-8 exploration stops
// being a CI-sized job, and the paper's protocol has no per-core
// machinery that a 4-core instance would not exercise.
const (
	MaxCores = 4
	MaxAddrs = 4
)

// MaxReplayCores bounds scripted replay (ReplayChecked): wide-sharer
// conformance scenarios need sharer sets that cross the 64- and
// 128-core word boundaries of the widened CoreSet, which exhaustive
// exploration could never afford. Replay runs one scripted path with
// the full property set after every op, so the only cost of width is
// linear in cores. The op alphabet addresses cores with a uint8, so
// the bound stays below 256.
const MaxReplayCores = 192

// Config describes one model-checking run.
type Config struct {
	// Cores is the core count (2..MaxCores).
	Cores int
	// Addrs is the number of distinct block addresses in the op
	// alphabet (1..MaxAddrs). All of them collide in every single-set
	// structure, so even two addresses exercise every eviction path.
	Addrs int
	// Depth bounds the BFS: every op sequence up to this length is
	// explored (modulo fingerprint dedup).
	Depth int
	// Backend selects the protocol backend under check. The zero value
	// is zerodev, so configs and traces from before the backend axis
	// keep their meaning.
	Backend backend.ID
	// Policy selects the DE caching policy (SpillAll/FPSS/FuseAll);
	// meaningful only on the zerodev backend (the only one with a
	// policy axis).
	Policy core.DEPolicy
	// AssertZeroDEV forces the zero-DEV property on even for backends
	// that do not claim it — the differentiator check: exploring
	// sparsemesi under this assertion must produce a counterexample,
	// which is how "zero-DEV fails on the baseline" is checked rather
	// than assumed.
	AssertZeroDEV bool
	// DirEntries sizes the replacement-disabled sparse directory as a
	// single set of that many ways; 0 runs without a sparse directory
	// (every entry housed in the LLC), the harshest configuration.
	DirEntries int
	// Broken wraps the home agent with faults.BrokenRecoveryHome (live
	// PutDE messages dropped), a known-bad variant that must yield a
	// counterexample — used to validate the checker itself.
	Broken bool
	// Workers shards frontier expansion across a harness pool; results
	// are identical at any value.
	Workers int
	// JobTimeout, when positive, bounds each frontier expansion's wall
	// time via the pool watchdog (a wedged engine aborts the search with
	// a diagnostic instead of hanging CI).
	JobTimeout time.Duration
}

// Validate rejects configurations outside the tiny-model envelope.
func (c Config) Validate() error { return c.validate(MaxCores) }

// ValidateReplay is Validate with the core bound raised to
// MaxReplayCores — legal only for scripted replay, never exploration.
func (c Config) ValidateReplay() error { return c.validate(MaxReplayCores) }

func (c Config) validate(maxCores int) error {
	if c.Cores < 2 || c.Cores > maxCores {
		return fmt.Errorf("mcheck: cores must be in [2,%d], got %d", maxCores, c.Cores)
	}
	if c.Addrs < 1 || c.Addrs > MaxAddrs {
		return fmt.Errorf("mcheck: addrs must be in [1,%d], got %d", MaxAddrs, c.Addrs)
	}
	if c.Depth < 1 {
		return fmt.Errorf("mcheck: depth must be positive, got %d", c.Depth)
	}
	if c.DirEntries < 0 || c.DirEntries > 8 {
		return fmt.Errorf("mcheck: dir entries must be in [0,8], got %d", c.DirEntries)
	}
	if c.Workers < 1 {
		return fmt.Errorf("mcheck: workers must be positive, got %d", c.Workers)
	}
	if c.JobTimeout < 0 {
		return fmt.Errorf("mcheck: job timeout must be at least 0 (0 = off), got %v", c.JobTimeout)
	}
	if _, ok := backend.Get(c.Backend); !ok {
		return fmt.Errorf("mcheck: %w %q", backend.ErrUnknownBackend, c.Backend)
	}
	switch c.backendID() {
	case backend.ZeroDEV:
		switch c.Policy {
		case core.SpillAll, core.FPSS, core.FuseAll:
		default:
			return fmt.Errorf("mcheck: unknown DE policy %d", c.Policy)
		}
	case backend.DLS:
		if c.DirEntries != 0 {
			return fmt.Errorf("mcheck: the dls backend is directoryless (dir entries must be 0, got %d)", c.DirEntries)
		}
	default:
		if c.DirEntries < 1 {
			return fmt.Errorf("mcheck: the %s backend needs a bounded directory (dir entries >= 1)", c.backendID())
		}
	}
	if c.Broken && c.backendID() != backend.ZeroDEV {
		return fmt.Errorf("mcheck: -broken wraps the zerodev home agent; the %s backend has no WB_DE flow to break", c.backendID())
	}
	return nil
}

// backendID resolves the configured backend, mapping the zero value to
// zerodev so pre-backend configs keep their meaning.
func (c Config) backendID() backend.ID {
	if c.Backend == "" {
		return backend.ZeroDEV
	}
	return c.Backend
}

// ClaimsZeroDEV reports whether the configured backend claims the
// zero-DEV guarantee; the checker asserts the property exactly then
// (or when AssertZeroDEV forces it on).
func (c Config) ClaimsZeroDEV() bool {
	return backend.MustGet(c.backendID()).ClaimsZeroDEV
}

// Label renders the configuration axis the CLI spells: the policy name
// on zerodev (the only backend with a policy sub-axis), the backend
// name elsewhere, with a "+assert" suffix when the zero-DEV property is
// force-asserted on a backend that does not claim it.
func (c Config) Label() string {
	l := string(c.backendID())
	if c.backendID() == backend.ZeroDEV {
		l = PolicyName(c.Policy)
	}
	if c.AssertZeroDEV && !c.ClaimsZeroDEV() {
		l += "+assert"
	}
	return l
}

// AddrOf maps an alphabet address index to a block address. The
// addresses are consecutive blocks: with single-set caches they collide
// everywhere regardless, and small numbers keep traces readable.
func AddrOf(i int) coher.Addr { return coher.Addr(0x40 + i) }

// spec assembles the tiny system: single-set 2-way private caches, one
// single-set 4-way LLC bank. Prefetching stays disabled (degree 0) —
// the fingerprint excludes the prefetcher's miss history, which is only
// sound while it cannot influence coherence actions. Each backend runs
// in its canonical organization (mirroring config.Preset.ForBackend)
// shrunk to the tiny-model envelope; the directory, where bounded, is
// a single set of DirEntries ways so every address conflicts there.
func (c Config) spec() core.SystemSpec {
	dirEntries := c.DirEntries
	s := core.SystemSpec{
		Cores: c.Cores,
		CPU: cpu.Params{
			L1Bytes: 2 * 64, L1Ways: 2,
			L2Bytes: 2 * 64, L2Ways: 2,
			IssueWidth:  4,
			L1HitCycles: 1, L2HitCycles: 10,
			LoadMLP: 2, StoreMLP: 4,
		},
		LLCBytes: 4 * 64, LLCWays: 4, LLCBanks: 1,
		DRAM:   dram.DDR3_2133(1),
		NoC:    noc.DefaultParams(),
		Uncore: core.DefaultParams(c.Cores),
	}
	switch c.backendID() {
	case backend.SparseMESI:
		s.Backend = backend.SparseMESI
		s.Mode, s.Repl = llc.NonInclusive, llc.LRU
		s.Dir = func() directory.Directory { return directory.MustTraditional(dirEntries, dirEntries) }
	case backend.DLS:
		s.Backend = backend.DLS
		s.Mode, s.Repl = llc.Inclusive, llc.LRU
		s.Dir = func() directory.Directory { return directory.NoDir{} }
	case backend.PhasePriority:
		s.Backend = backend.PhasePriority
		s.Mode, s.Repl = llc.NonInclusive, llc.LRU
		s.Dir = func() directory.Directory { return directory.MustReplacementDisabled(dirEntries, dirEntries) }
	default: // zerodev
		s.Mode, s.Repl = llc.NonInclusive, llc.DataLRU
		s.Backend = backend.ZeroDEV
		s.Policy = c.Policy
		s.Dir = func() directory.Directory {
			if dirEntries == 0 {
				return directory.NoDir{}
			}
			return directory.MustReplacementDisabled(dirEntries, dirEntries)
		}
		if c.Broken {
			s.WrapHome = faults.BrokenRecoveryHome
		}
	}
	return s
}

// PolicyName renders a DE policy the way the CLI spells it.
func PolicyName(p core.DEPolicy) string {
	switch p {
	case core.SpillAll:
		return "spillall"
	case core.FPSS:
		return "fpss"
	case core.FuseAll:
		return "fuseall"
	}
	return fmt.Sprintf("policy(%d)", p)
}

// ParsePolicy is the inverse of PolicyName.
func ParsePolicy(s string) (core.DEPolicy, error) {
	switch strings.ToLower(s) {
	case "spillall":
		return core.SpillAll, nil
	case "fpss":
		return core.FPSS, nil
	case "fuseall":
		return core.FuseAll, nil
	}
	return 0, fmt.Errorf("mcheck: unknown DE policy %q (want spillall, fpss, or fuseall)", s)
}

// ParsePolicies parses a comma-separated policy list; "all" (or "")
// selects all three in paper order.
func ParsePolicies(s string) ([]core.DEPolicy, error) {
	if s == "" || strings.EqualFold(s, "all") {
		return []core.DEPolicy{core.SpillAll, core.FPSS, core.FuseAll}, nil
	}
	var out []core.DEPolicy
	for _, part := range strings.Split(s, ",") {
		p, err := ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
