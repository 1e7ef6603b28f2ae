// Package core implements the paper's contribution: the uncore
// coherence protocol engine for one socket, in both its baseline form
// (traditional MESI home directory whose evictions produce directory
// eviction victims) and the ZeroDEV form (replacement-disabled sparse
// directory, directory-entry caching in the LLC under the SpillAll /
// FusePrivateSpillShared / FuseAll policies, and invalidation-free
// directory-entry eviction into home memory).
//
// The engine is synchronous: each request executes its full protocol
// transaction atomically at a point in simulated time, mutating global
// state and returning the completion time. Cores are interleaved by the
// min-clock scheduler in package sim, so transactions from different
// cores serialize in timestamp order. A consequence is that directory
// entries are never left in a transient (busy) state between
// transactions; the busy machinery of the real protocol is represented
// in the line formats and message taxonomy but needs no retry logic
// here. DESIGN.md discusses this approximation.
package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/directory"
	"repro/internal/llc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// DEPolicy selects how ZeroDEV houses directory entries in the LLC
// (§III-C).
type DEPolicy uint8

const (
	// SpillAll spills every entry into a full LLC line.
	SpillAll DEPolicy = iota
	// FPSS fuses entries of M/E blocks with the block's own LLC line and
	// spills entries of S blocks (FusePrivateSpillShared).
	FPSS
	// FuseAll fuses regardless of coherence state whenever the block is
	// LLC-resident, spilling otherwise.
	FuseAll
)

// String implements fmt.Stringer.
func (p DEPolicy) String() string {
	switch p {
	case SpillAll:
		return "SpillAll"
	case FPSS:
		return "FPSS"
	case FuseAll:
		return "FuseAll"
	}
	return "DEPolicy(?)"
}

// Params configure a protocol engine.
type Params struct {
	// Cores is the per-socket core count.
	Cores int
	// Backend selects the coherence-protocol backend, resolved through
	// backend.Get (the empty ID is zerodev).
	Backend backend.ID
	// Policy is the directory-entry caching policy (ZeroDEV only).
	Policy DEPolicy
	// TagCycles and DataCycles are the LLC array lookup latencies
	// (Table I: 3-cycle tag, 4-cycle data).
	TagCycles, DataCycles sim.Cycle
	// QueueCycles approximates the waiting time at the interface queues
	// up and down the hierarchy that the paper's simulator models
	// explicitly ("the round-trip latency for LLC lookup includes ...
	// the waiting time at several interface queues", §IV). Charged once
	// per request at the home bank.
	QueueCycles sim.Cycle
	// OwnerLookupCycles approximates the private-hierarchy lookup time a
	// forwarded request spends at the owner/sharer core.
	OwnerLookupCycles sim.Cycle
	// Socket is this socket's identity in a multi-socket system.
	Socket int
}

// DefaultParams returns the Table I uncore timing.
func DefaultParams(cores int) Params {
	return Params{
		Cores:             cores,
		TagCycles:         3,
		DataCycles:        4,
		OwnerLookupCycles: 10,
		QueueCycles:       14,
	}
}

// CorePort is the view the engine has of a core's private hierarchy for
// externally initiated coherence actions. *cpu.Core implements it.
type CorePort interface {
	HasBlock(addr coher.Addr) (coher.PrivState, bool)
	Invalidate(addr coher.Addr) coher.PrivState
	Downgrade(addr coher.Addr) coher.PrivState
}

// Engine is the per-socket uncore: sparse directory, LLC, interconnect
// and the coherence state machine gluing them to the home agent.
type Engine struct {
	p      Params
	cores  []CorePort
	dir    directory.Directory
	llc    *llc.LLC
	mesh   *noc.Mesh
	home   Home
	stats  Stats
	faults FaultPort
	// faultHooks is the optional protocol-aware fault surface, consulted
	// at the Admit / EvictNoDE / LastHolderGone protocol-dispatch
	// boundaries. Nil outside fault campaigns; every consultation is
	// guarded so ordinary runs stay byte-identical.
	faultHooks FaultHooks

	// proto is the backend's protocol object; the flags below cache its
	// registry metadata so the request hot paths stay branch-cheap
	// (no interface calls for the common decisions).
	proto Protocol
	// housesInLLC: directory entries may live in LLC lines.
	housesInLLC bool
	// usesHomeSegments: entries can be written back into home-memory
	// block segments (WB_DE/GET_DE), i.e. home blocks can be corrupted.
	usesHomeSegments bool
	// spillAllPenalty: reads pay the SpillAll co-resident-entry
	// data-array penalty (zerodev + SpillAll only).
	spillAllPenalty bool
	// fusedDataUsable: a fused line's data part serves requests without
	// reconstruction (DLS in-tag tracking; false for zerodev, whose
	// fused entries overwrite the block's low bits).
	fusedDataUsable bool
	// deInDataArray: LLC-housed entries are read out of the data array,
	// costing DataCycles on upgrade paths (zerodev; false for DLS
	// tag-side tracking).
	deInDataArray bool
	// hasAdmit: the backend's Admit hook is live (phase-priority).
	hasAdmit bool
	// claimsZeroDEV: the backend guarantees zero directory eviction
	// victims; fault injectors must not force one (ForceDirectoryVictim
	// refuses, so a misconfigured campaign cannot fake a violation).
	claimsZeroDEV bool
}

// New wires an engine. cores may be attached later with AttachCores when
// construction order requires it (cpu.Core needs the engine as its
// Uncore and vice versa).
func New(p Params, dir directory.Directory, l *llc.LLC, mesh *noc.Mesh, home Home) *Engine {
	if p.Cores <= 0 || p.Cores > coher.MaxRepresentableCores {
		panic(fmt.Sprintf("core: unsupported core count %d", p.Cores))
	}
	info, ok := backend.Get(p.Backend)
	if !ok {
		panic(fmt.Sprintf("core: unknown protocol backend %q", p.Backend))
	}
	e := &Engine{p: p, dir: dir, llc: l, mesh: mesh, home: home}
	e.proto = newProtocol(e, info.ID)
	e.housesInLLC = info.HousesDEsInLLC
	e.usesHomeSegments = info.UsesHomeSegments
	e.spillAllPenalty = info.ID == backend.ZeroDEV && p.Policy == SpillAll
	e.fusedDataUsable = info.ID == backend.DLS
	e.deInDataArray = info.ID == backend.ZeroDEV
	e.hasAdmit = info.ID == backend.PhasePriority
	e.claimsZeroDEV = info.ClaimsZeroDEV
	return e
}

// Protocol exposes the backend's protocol object for instrumentation
// and conformance tests.
func (e *Engine) Protocol() Protocol { return e.proto }

// AttachCores registers the core ports; index is the CoreID.
func (e *Engine) AttachCores(cores []CorePort) {
	if len(cores) != e.p.Cores {
		panic("core: AttachCores count mismatch")
	}
	e.cores = cores
}

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// LLC exposes the cache for instrumentation and invariant checks.
func (e *Engine) LLC() *llc.LLC { return e.llc }

// Directory exposes the sparse directory for instrumentation.
func (e *Engine) Directory() directory.Directory { return e.dir }

// Mesh exposes the interconnect for traffic reporting.
func (e *Engine) Mesh() *noc.Mesh { return e.mesh }

// Params exposes the configuration.
func (e *Engine) Params() Params { return e.p }

// --- directory entry location ----------------------------------------------

type deLoc uint8

const (
	locNone deLoc = iota
	locDir
	locLLC
)

// reconcileImprecise resolves an imprecise directory entry — a coarse-
// compressed home-memory segment decoded to a superset of the true
// holders (wide sockets only) — against the actual private-cache
// states, before the engine acts on it. Without this step the protocol
// would send invalidations to cores that never held the block and trip
// the untracked-copy invariants. A superset that reconciles to nothing
// returns a dead entry; callers on the eviction path must tolerate
// that. Precise entries (every configuration the paper evaluates) pass
// through untouched.
func (e *Engine) reconcileImprecise(addr coher.Addr, ent coher.Entry) coher.Entry {
	if !ent.Imprecise {
		return ent
	}
	ent.Imprecise = false
	if ent.State != coher.DirShared {
		return ent
	}
	e.stats.ImpreciseReconciles++
	var actual coher.CoreSet
	ent.Sharers.ForEach(func(c coher.CoreID) {
		if _, ok := e.cores[c].HasBlock(addr); ok {
			actual.Add(c)
		} else {
			e.stats.ImpreciseDrops++
		}
	})
	if actual.Empty() {
		return coher.Entry{}
	}
	ent.Sharers = actual
	return ent
}

// findDE locates the directory entry for addr within the socket: the
// sparse directory and, for backends that house entries in the LLC, the
// spilled or fused line in the pre-computed view.
func (e *Engine) findDE(addr coher.Addr, v llc.View) (coher.Entry, deLoc) {
	if ent, ok := e.dir.Lookup(addr); ok {
		return ent, locDir
	}
	if e.housesInLLC && v.HasDE() {
		return e.llc.Entry(v), locLLC
	}
	return coher.Entry{}, locNone
}

// usableData reports whether v's data part can serve a request
// directly: a plain data line always can; a fused line only when the
// backend keeps the data intact alongside tag-side tracking (DLS).
func (e *Engine) usableData(v llc.View) bool {
	return v.HasData() && (!v.Fused || e.fusedDataUsable)
}

// record charges one interconnect message.
func (e *Engine) record(mt coher.MsgType) {
	e.mesh.Record(mt, e.p.Cores)
}

func (e *Engine) bankOf(addr coher.Addr) int { return e.llc.BankOf(addr) }

func max2(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
