package core

import (
	"repro/internal/coher"
	"repro/internal/directory"
	"repro/internal/llc"
	"repro/internal/sim"
)

// This file is the engine side of the fault-injection seams used by
// internal/faults. Faults never teleport state: every perturbation is
// expressed through an existing protocol flow (WB_DE quarantine of a
// suspect entry, a forced DE eviction, a socket-style invalidation), so
// a correct engine must survive all of them by exercising the paper's
// recovery machinery — corrupted-block fetch, GET_DE, DENF_NACK retry
// and last-copy retrieval. DESIGN.md ("Fault model") gives the full
// fault → recovery-flow map.

// Faults is the engine's fault-injection seam; internal/faults
// implements it. Nil outside fault campaigns, and with none installed
// every path is byte-identical to an ordinary run.
type Faults interface {
	// CorruptHousedDE is consulted at LLC read time, once per top-level
	// request that observes a housed directory entry. A true return means
	// the stored encoding suffered an uncorrectable bit flip: the engine
	// retires the entry to home memory (quarantine via the WB_DE flow)
	// and re-reads the LLC, after which the usual no-DE recovery paths
	// serve the request.
	CorruptHousedDE(addr coher.Addr, ent coher.Entry, fused bool) bool
	// AdmitFault wraps a phase-priority request's admission charge
	// (admit: the NACK/retry ladder) and returns the charge to apply — a
	// NACK storm stretches it, a dropped retry budget collapses it. It is
	// protocol-legal by construction: latency-only, coherence state is
	// untouched.
	AdmitFault(t sim.Cycle, addr coher.Addr, charge sim.Cycle) sim.Cycle
}

// SetFaults installs (or, with nil, removes) the fault injector.
func (e *Engine) SetFaults(f Faults) { e.faults = f }

// maybeCorruptDE gives the fault injector a chance to corrupt the housed
// directory entry the current request is about to consume. It runs only
// at top-level request entry — never inside a recovery redispatch — so
// the engine observes the corruption exactly as it would observe a
// flipped line read from the LLC array: the entry is gone from the
// socket and its last-known value lives in the block's home segment.
// Returns the view to use (re-probed when the line changed).
func (e *Engine) maybeCorruptDE(t sim.Cycle, addr coher.Addr, v llc.View) llc.View {
	// Quarantine retires the flipped entry into the block's home-memory
	// segment, so only backends with WB_DE housing participate.
	if e.faults == nil || !e.usesHomeSegments || !v.HasDE() {
		return v
	}
	ent := e.llc.Entry(v)
	if !e.faults.CorruptHousedDE(addr, ent, v.Fused) {
		return v
	}
	e.stats.FaultQuarantinedDEs++
	e.retireDE(t, v)
	return e.llc.Probe(addr)
}

// retireDE quarantines an LLC-housed directory entry into the block's
// home-memory segment via the ordinary WB_DE flow (Fig. 14), evicting
// its line. A fused line's block part leaves with it: its low bits are
// unreconstructible without a busy-clear retrieval, and a live entry
// always tracks at least one private copy, so no data is lost and the
// §III-D4 last-copy retrieval restores memory when that copy eventually
// leaves.
func (e *Engine) retireDE(t sim.Cycle, v llc.View) {
	ev := e.llc.Evict(v, v.DEWay)
	e.record(coher.MsgWBDE)
	e.home.WBDE(t, e.p.Socket, ev.Addr, ev.Entry)
}

// ForceDEWriteback evicts the LLC-housed directory entry for addr into
// home memory as if the replacement policy had victimized its line (a
// DE-eviction storm forces many of these in a burst). Reports whether
// an entry was actually housed in the LLC.
func (e *Engine) ForceDEWriteback(t sim.Cycle, addr coher.Addr) bool {
	if !e.usesHomeSegments {
		return false
	}
	v := e.llc.Probe(addr)
	if !v.HasDE() {
		return false
	}
	e.stats.FaultForcedWBDEs++
	e.retireDE(t, v)
	return true
}

// InjectInvalidation spuriously invalidates every copy of addr on this
// socket, mirroring what the home agent does when another socket
// acquires the block exclusively. The invalidation is consistent — the
// directory entry (on-chip or in a home segment) is freed along with
// the copies and dirty data is written back when the home block can
// accept it — so the protocol state
// stays legal; the fault pressure is the lost locality and the
// recovery flows later requests must take. Reports whether the socket
// held anything to invalidate.
func (e *Engine) InjectInvalidation(t sim.Cycle, addr coher.Addr) bool {
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	var dirty bool
	if _, loc := e.findDE(addr, e.llc.Probe(addr)); loc != locNone {
		dirty = e.InvalidateSocketCopies(t, addr)
	} else if seg, live := e.home.Segment(e.p.Socket, addr); live {
		dirty = e.InvalidateSocketCopiesWithDE(t, addr, seg)
		e.home.PutDE(t, e.p.Socket, addr, coher.Entry{})
	} else {
		return false
	}
	e.stats.FaultInvalidations++
	if dirty && !e.home.Corrupted(addr) {
		// Same rule as ordinary dirty evictions: while the home block is
		// corrupted a full-block writeback would destroy other sockets'
		// segments (mem.Restore clears them all), so the dirty data
		// perishes with the injected invalidation instead.
		e.home.WriteBack(t, e.p.Socket, addr)
	}
	e.maybeSocketEvict(t, addr)
	return true
}

// ForceDirectoryVictim evicts addr's live sparse-directory entry as if
// the replacement policy had victimized it, routing the invalidations
// through the ordinary DEV flow (processDEVs): every tracked private
// copy is invalidated and dirty data is retrieved into the LLC. Refused
// on zero-DEV backends — their whole claim is that this event cannot
// happen, so the injector must not be able to fabricate it — and when
// no entry for addr is in the directory. Reports whether a victim was
// forced.
func (e *Engine) ForceDirectoryVictim(t sim.Cycle, addr coher.Addr) bool {
	if e.claimsZeroDEV {
		return false
	}
	ent, ok := e.dir.Lookup(addr)
	if !ok || !ent.Live() {
		return false
	}
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	e.stats.FaultForcedDEVs++
	e.dir.Free(addr)
	e.processDEVs(t, []directory.Victim{{Addr: addr, Entry: ent}})
	return true
}

// ScrambleDirectoryNRU perturbs the directory's replacement state for
// addr (an extra NRU touch), so subsequent organic victim selection
// diverges from the unperturbed run while every coherence invariant
// holds. Reports whether addr had an entry to touch.
func (e *Engine) ScrambleDirectoryNRU(addr coher.Addr) bool {
	if _, ok := e.dir.Lookup(addr); !ok {
		return false
	}
	e.dir.Touch(addr)
	return true
}

// ForceInclusionEviction victimizes addr's fused LLC line as if the
// replacement policy had chosen it, driving the §III-F inclusion
// eviction: every tracked private copy is forcibly invalidated and
// dirty data written back. Only meaningful on inclusive LLCs with
// in-tag (fused) tracking — DLS — where coherence state rides the data
// line and an LLC victim therefore takes the sharers down with it.
// Reports whether a line was evicted.
func (e *Engine) ForceInclusionEviction(t sim.Cycle, addr coher.Addr) bool {
	if e.llc.Mode() != llc.Inclusive {
		return false
	}
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	v := e.llc.Probe(addr)
	if !v.Fused {
		return false
	}
	e.stats.FaultInclusionEvs++
	e.handleEvicted(t, e.llc.Evict(v, v.DEWay))
	return true
}

// ForceLLCEviction applies eviction pressure to addr: whatever the LLC
// holds for the block — a spilled or fused directory entry, a data
// line, or both — is victimized exactly as replacement would victimize
// it, and each displaced line is disposed of through handleEvicted (so
// zerodev answers with WB_DE to home memory, inclusive backends with an
// inclusion eviction, and plain data lines with an ordinary writeback).
// Reports whether anything was evicted.
func (e *Engine) ForceLLCEviction(t sim.Cycle, addr coher.Addr) bool {
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	v := e.llc.Probe(addr)
	if !v.HasData() && !v.HasDE() {
		return false
	}
	e.stats.FaultForcedEvs++
	if v.HasDE() {
		// A fused line's block part leaves with the entry: it is
		// unreconstructible without the busy-clear low bits (zerodev) or
		// rides out with the entry (inclusive in-tag tracking).
		e.handleEvicted(t, e.llc.Evict(v, v.DEWay))
		v = e.llc.Probe(addr)
	}
	if v.HasData() {
		e.handleEvicted(t, e.llc.Evict(v, v.DataWay))
	}
	return true
}
