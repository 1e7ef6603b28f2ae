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
	p     Params
	cores []CorePort
	dir   directory.Directory
	llc   *llc.LLC
	mesh  *noc.Mesh
	home  Home
	stats Stats
	// faults is the fault injector (SetFaults), nil outside fault
	// campaigns; every consultation is guarded so ordinary runs stay
	// byte-identical.
	faults Faults

	// store houses a live entry wherever the backend keeps entries
	// (storeZeroDEV, storeSparse, storeDLS or storePhase), picked once by
	// New. The backends' other differences are the fields below, cached
	// from the registry so the request flows stay branch-cheap.
	store func(e *Engine, t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (after llc.View, known bool)
	// conflict is the phase-priority directory, nil on every other
	// backend: a request that must allocate an entry pays its NACK/retry
	// ladder (admit), and an allocation that still conflicts escalates
	// (storePhase).
	conflict ConflictDirectory
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
	// claimsZeroDEV: the backend guarantees zero directory eviction
	// victims; fault injectors must not force one (ForceDirectoryVictim
	// refuses, so a misconfigured campaign cannot fake a violation).
	claimsZeroDEV bool
}

// ConflictDirectory is the directory extension the phase-priority
// backend programs against: it must expose allocation-conflict
// detection (SetFull) and prioritized victim eviction (EvictVictim) on
// top of the base Directory contract. directory.Traditional implements
// it.
type ConflictDirectory interface {
	directory.Directory
	// SetFull reports whether allocating addr would conflict: addr is
	// absent and its set has no free way.
	SetFull(addr coher.Addr) bool
	// EvictVictim forcibly evicts the replacement victim of addr's set
	// and returns it; ok is false when the set has a free way or addr is
	// already present (no eviction needed).
	EvictVictim(addr coher.Addr) (directory.Victim, bool)
}

// New wires an engine. cores may be attached later with AttachCores when
// construction order requires it (cpu.Core needs the engine as its
// Uncore and vice versa). A backend's structural requirements
// (directory flavor, LLC mode) are checked here, so a mis-assembled
// spec fails at construction, not mid-run.
func New(p Params, dir directory.Directory, l *llc.LLC, mesh *noc.Mesh, home Home) *Engine {
	if p.Cores <= 0 || p.Cores > coher.MaxRepresentableCores {
		panic(fmt.Sprintf("core: unsupported core count %d", p.Cores))
	}
	info, ok := backend.Get(p.Backend)
	if !ok {
		panic(fmt.Sprintf("core: unknown protocol backend %q", p.Backend))
	}
	e := &Engine{p: p, dir: dir, llc: l, mesh: mesh, home: home}
	switch info.ID {
	case backend.ZeroDEV:
		e.store = (*Engine).storeZeroDEV
	case backend.SparseMESI:
		e.store = (*Engine).storeSparse
	case backend.DLS:
		if l.Mode() != llc.Inclusive {
			panic("core: the DLS backend requires an inclusive LLC (in-tag tracking forces inclusion)")
		}
		if _, capacity := dir.Occupancy(); capacity != 0 {
			panic("core: the DLS backend is directoryless; assemble it with directory.NoDir")
		}
		e.store = (*Engine).storeDLS
	case backend.PhasePriority:
		cd, ok := dir.(ConflictDirectory)
		if !ok {
			panic("core: the phase-priority backend needs a directory with SetFull/EvictVictim (directory.Traditional)")
		}
		e.conflict, e.store = cd, (*Engine).storePhase
	default:
		panic(fmt.Sprintf("core: no protocol implementation for backend %q", info.ID))
	}
	e.housesInLLC = info.HousesDEsInLLC
	e.usesHomeSegments = info.UsesHomeSegments
	e.spillAllPenalty = info.ID == backend.ZeroDEV && p.Policy == SpillAll
	e.fusedDataUsable = info.ID == backend.DLS
	e.deInDataArray = info.ID == backend.ZeroDEV
	e.claimsZeroDEV = info.ClaimsZeroDEV
	return e
}

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

// arrive records request message mt from core c and returns the cycle
// the request is looked up at addr's home bank: the trip there, the
// interface queues and the tag lookup.
func (e *Engine) arrive(t sim.Cycle, c coher.CoreID, addr coher.Addr, mt coher.MsgType) sim.Cycle {
	e.record(mt)
	return t + e.mesh.CoreToBank(c, e.bankOf(addr)) + e.p.QueueCycles + e.p.TagCycles
}

// ppRetryBudget is the modeled NACK/retry ladder depth: the number of
// retries a conflicting allocation issues (each costing one queue
// round, Params.QueueCycles) before the phase boundary escalates its
// priority and the directory victimizes a live entry for it.
const ppRetryBudget = 2

// admit charges a request that found no entry on the socket, so must
// allocate one, on the phase-priority backend (arXiv 1305.3038; callers
// check e.conflict, so the other backends pay nothing): a conflicting
// allocation is NACKed and retried ppRetryBudget times, and the fault
// injector may stretch or collapse that charge. It returns the cycle the
// request proceeds at.
func (e *Engine) admit(t1 sim.Cycle, addr coher.Addr) sim.Cycle {
	var charge sim.Cycle
	if e.conflict.SetFull(addr) {
		e.stats.DirNACKs++
		e.stats.DirRetries += ppRetryBudget
		charge = ppRetryBudget * e.p.QueueCycles
	}
	if e.faults != nil {
		if perturbed := e.faults.AdmitFault(t1, addr, charge); perturbed != charge {
			e.stats.FaultNACKStorms++
			charge = perturbed
		}
	}
	return t1 + charge
}

// getDE fetches this socket's entry for addr out of a corrupted home
// block (GET_DE, Fig. 16 steps 3-4) and clears the consumed segment. ok
// is false when the home block is intact or holds no entry for the
// socket.
func (e *Engine) getDE(t1 sim.Cycle, addr coher.Addr) (de coher.Entry, d0 sim.Cycle, ok bool) {
	if !e.usesHomeSegments || !e.home.Corrupted(addr) {
		return de, d0, false
	}
	if de, d0, ok = e.home.GetDE(t1, e.p.Socket, addr); ok {
		e.home.PutDE(t1, e.p.Socket, addr, coher.Entry{})
	}
	return de, d0, ok
}

// rehouse puts an entry recovered from a corrupted home block at cycle
// d (by getDE, or carried by FetchBlock) back on chip, and locates it
// for the request's redispatch as a directory hit.
func (e *Engine) rehouse(d sim.Cycle, addr coher.Addr, de coher.Entry) (llc.View, coher.Entry, deLoc) {
	e.stats.CorruptedFetches++
	e.storeDE(d, addr, e.reconcileImprecise(addr, de))
	v := e.llc.Probe(addr)
	ent, loc := e.findDE(addr, v)
	if loc == locNone {
		panic(fmt.Sprintf("core: directory entry for %#x recovered from home memory vanished", uint64(addr)))
	}
	return v, ent, loc
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
