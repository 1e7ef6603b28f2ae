package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/directory"
	"repro/internal/llc"
	"repro/internal/sim"
)

// This file contains the directory-entry housing machinery: where an
// entry lives (sparse directory, LLC, or home memory), how it moves
// between spilled and fused forms as the block's coherence state
// changes (the FPSS invariants of §III-C2), what happens when the LLC
// evicts a line (data writeback vs the WB_DE flow of §III-D), and how
// the baseline turns directory victims into DEVs.

// storeDE writes the live entry for addr wherever it currently lives,
// creating housing when it lives nowhere on the socket. It maintains the
// policy invariants on spilled/fused form.
func (e *Engine) storeDE(t sim.Cycle, addr coher.Addr, ent coher.Entry) {
	e.storeDEView(t, addr, ent, llc.View{DataWay: -1, DEWay: -1}, false)
}

// storeDETouch performs the storeDE-then-touchLLC sequence the request
// flows end with, reusing the caller's view v of addr so the pair costs
// at most one LLC probe. v must be current: Protect(addr) held (so no
// allocation can displace addr's lines) and no fill or DE-housing
// change for addr since v was probed.
func (e *Engine) storeDETouch(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View) {
	nv, known := e.storeDEView(t, addr, ent, v, true)
	if !known {
		nv = e.llc.Probe(addr)
	}
	if nv.HasData() || nv.HasDE() {
		e.llc.Touch(nv)
	}
}

// storeDEView is storeDE taking the caller's current view of addr
// (haveView), saving the probe on the LLC-housing paths. It returns
// addr's view after housing; known is false when the final view would
// require a fresh probe (a spilled line landed at a way this function
// cannot cheaply know, or no view was supplied). Where the entry may
// live — and what a housing conflict costs — is the backend's call:
// e.store is one of the four methods below.
func (e *Engine) storeDEView(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (after llc.View, known bool) {
	if !ent.Live() {
		panic("core: storeDE with a dead entry; use freeDE")
	}
	return e.store(e, t, addr, ent, v, haveView)
}

// storeZeroDEV is the paper's proposal: entries live in the
// replacement-disabled sparse directory when it has room and are housed
// in the LLC otherwise (spilled or fused per the DEPolicy), leaving the
// socket only via the WB_DE flow into home memory.
func (e *Engine) storeZeroDEV(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	if _, ok := e.dir.Lookup(addr); ok {
		// In-place update. Traditional directories never evict here, but
		// SecDir (private-partition conflicts while reconciling holders)
		// and MgD (grain conversions) can. Victims are other addresses, so
		// v stays current (addr's lines are protected).
		victims, housed := e.dir.Store(addr, ent)
		if !housed {
			panic("core: in-place directory update refused")
		}
		e.displaceToLLC(t, victims)
		return v, haveView
	}
	if !haveView {
		v = e.llc.Probe(addr)
	}
	if v.HasDE() {
		return e.updateLLCDE(t, addr, ent, v)
	}
	// New housing: the sparse directory first.
	if victims, housed := e.dir.Store(addr, ent); housed {
		e.displaceToLLC(t, victims)
		return v, true
	}
	return e.houseInLLCView(t, addr, ent, v)
}

// displaceToLLC houses the live entries a sparse directory displaced
// in the LLC. Under the §III-C4 ablation (a replacement-enabled sparse
// directory under ZeroDEV) a displaced entry moves to the LLC instead of
// generating DEVs — but it has now disturbed both structures, which is
// why the paper prefers the replacement-disabled design.
func (e *Engine) displaceToLLC(t sim.Cycle, victims []directory.Victim) {
	for _, w := range victims {
		if w.Entry.Live() {
			e.stats.DEDisplacedToLLC++
			e.houseInLLC(t, w.Addr, w.Entry)
		}
	}
}

// storeSparse is the classic bounded sparse-directory baseline: every
// entry lives in the NRU directory, and a conflict evicts a live entry
// whose tracked copies become DEVs.
func (e *Engine) storeSparse(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	_, inPlace := e.dir.Lookup(addr)
	victims, housed := e.dir.Store(addr, ent)
	if !housed && inPlace {
		panic("core: in-place directory update refused")
	}
	if !housed {
		panic("core: baseline directory refused an allocation")
	}
	e.processDEVs(t, victims)
	return v, haveView
}

// storeDLS is the directoryless shared LLC (arXiv 1206.4753): there is
// no directory structure at all — tracking state rides in the LLC tags
// of the block's own line, modeled as a fused line whose data part stays
// fully usable (the entry lives tag-side, not in the data bits). The
// consequences fall out of the existing machinery: tracking a block
// forces it LLC-resident (a line fill on directory-entry creation when
// the block is absent), the LLC is necessarily inclusive, and evicting a
// tracked line is an inclusion eviction — forced invalidations, never a
// WB_DE. Zero DEVs by construction; the costs are the residency tax and
// inclusion victims.
func (e *Engine) storeDLS(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	if !haveView {
		v = e.llc.Probe(addr)
	}
	if v.HasDE() {
		// In-tag update on the block's own line.
		e.llc.SetEntry(v, ent)
		return v, true
	}
	if !v.HasData() {
		// A tracked block must be LLC-resident: fill the line before
		// attaching tracking state — the DLS residency tax.
		e.stats.DLSLineFills++
		if ev, ok := e.llc.InsertData(addr, false); ok {
			e.handleEvicted(t, ev)
		}
		v = e.llc.Probe(addr)
		if !v.HasData() {
			panic(fmt.Sprintf("core: DLS line fill for %#x failed under protection", uint64(addr)))
		}
	}
	e.llc.Fuse(v, ent)
	e.stats.DEFuses++
	v.DEWay, v.Fused = v.DataWay, true
	return v, true
}

// storePhase is the phase-priority directory (arXiv 1305.3038): a
// bounded replacement-disabled directory whose allocation conflicts are
// NACKed and retried under a bounded budget (admit charges it at request
// entry). When the budget is spent, the phase boundary raises the
// requester's priority and the directory evicts the replacement victim
// — so DEVs still occur, but only at escalation, after the retry latency
// has been charged to the conflicting request rather than silently to
// the victim.
func (e *Engine) storePhase(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	victims, housed := e.conflict.Store(addr, ent)
	if housed {
		e.processDEVs(t, victims)
		return v, haveView
	}
	e.stats.PhaseEscalations++
	w, ok := e.conflict.EvictVictim(addr)
	if !ok {
		panic(fmt.Sprintf("core: phase-priority escalation for %#x found no victim", uint64(addr)))
	}
	e.processDEVs(t, []directory.Victim{w})
	if _, housed := e.conflict.Store(addr, ent); !housed {
		panic(fmt.Sprintf("core: phase-priority directory refused %#x after escalation", uint64(addr)))
	}
	return v, haveView
}

// updateLLCDE rewrites an LLC-housed entry, converting between spilled
// and fused forms when the coherence state transition demands it
// (zerodev protocol only). It returns addr's view after the rewrite;
// known is false when the new housing landed at a way only a fresh
// probe can find.
func (e *Engine) updateLLCDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View) (after llc.View, known bool) {
	switch e.p.Policy {
	case FPSS:
		if v.Fused && ent.State == coher.DirShared {
			// M/E → S: the owner's busy-clear message carried the low bits,
			// so the block is reconstructed and the entry spills (§III-C2).
			e.llc.Unfuse(v)
			e.stats.DEFuseToSpill++
			if ev, ok := e.llc.InsertSpilled(addr, ent); ok {
				e.handleEvicted(t, ev)
			}
			return llc.View{}, false
		}
		if !v.Fused && ent.State == coher.DirOwned && v.HasData() && e.llc.Mode() != llc.EPD {
			// S → M/E: fuse with the block, freeing the spilled line
			// (§III-C2 invariant maintenance). Dropping the spilled DE
			// leaves the data way of v untouched, so the view stays valid
			// for the fuse.
			e.llc.DropDE(v)
			e.llc.Fuse(v, ent)
			e.stats.DESpillToFuse++
			v.DEWay, v.Fused = v.DataWay, true
			return v, true
		}
		// Block absent (or EPD, where M/E blocks leave the LLC): the
		// entry stays in spilled form.
		e.llc.SetEntry(v, ent)
	case FuseAll:
		if v.Fused && !coher.FitsFusedFuseAll(ent.State, e.p.Cores) {
			// Wide sockets: the S-state fused header (4+N bits) no longer
			// fits the line; the entry reverts to spilled form, exactly
			// like the FPSS M/E → S conversion. Never taken at ≤508 cores.
			e.llc.Unfuse(v)
			e.stats.DEFuseToSpill++
			if ev, ok := e.llc.InsertSpilled(addr, ent); ok {
				e.handleEvicted(t, ev)
			}
			return llc.View{}, false
		}
		if v.Fused && ent.State == coher.DirOwned && e.llc.Mode() == llc.EPD {
			// EPD deallocates M/E blocks from the LLC; the fused line's
			// block part is dead, so the line degenerates to a spill.
			p := e.llc.Payload(v, v.DEWay)
			p.Kind = llc.KindSpilled
			p.Dirty = false
			e.llc.SetEntry(v, ent)
			v.DataWay, v.Fused = -1, false
			return v, true
		}
		e.llc.SetEntry(v, ent)
	default: // SpillAll
		e.llc.SetEntry(v, ent)
	}
	return v, true
}

// houseInLLC places a new entry in the LLC according to the caching
// policy (§III-C1..3).
func (e *Engine) houseInLLC(t sim.Cycle, addr coher.Addr, ent coher.Entry) {
	e.houseInLLCView(t, addr, ent, e.llc.Probe(addr))
}

// houseInLLCView is houseInLLC with the caller's current view of addr.
// Returns the post-housing view like updateLLCDE.
func (e *Engine) houseInLLCView(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View) (after llc.View, known bool) {
	if v.HasDE() {
		return e.updateLLCDE(t, addr, ent, v)
	}
	fuse := false
	switch e.p.Policy {
	case FPSS:
		fuse = ent.State == coher.DirOwned && v.HasData() && !v.Fused
	case FuseAll:
		// Past 508 cores the S-state fused header overflows the line
		// payload, so wide shared entries stay on the spill path — the
		// overflow regime the scale figures measure.
		fuse = v.HasData() && !v.Fused && coher.FitsFusedFuseAll(ent.State, e.p.Cores)
	}
	if fuse {
		e.llc.Fuse(v, ent)
		e.stats.DEFuses++
		v.DEWay, v.Fused = v.DataWay, true
		return v, true
	}
	e.stats.DESpills++
	if ev, ok := e.llc.InsertSpilled(addr, ent); ok {
		e.handleEvicted(t, ev)
	}
	return llc.View{}, false
}

// freeDE removes the entry for addr from wherever it lives on the
// socket. forceDirty is meaningful when the entry was fused: it forces
// the reconstructed block part's dirty bit (PutM deliveries carry fresh
// dirty data). v must be the caller's current view of addr. It reports
// whether the block remains LLC-resident.
func (e *Engine) freeDE(t sim.Cycle, addr coher.Addr, forceDirty bool, v llc.View) (blockInLLC bool) {
	if _, ok := e.dir.Lookup(addr); ok {
		e.dir.Free(addr)
		return v.HasData()
	}
	if !v.HasDE() {
		return v.HasData()
	}
	e.stats.DEFreedInLLC++
	if v.Fused {
		// The line reverts to a plain data block; the low bits came with
		// the eviction notice (PutE) or the full block did (PutM), or —
		// for FuseAll S-state lines — via the last-sharer retrieval
		// acknowledgement handled by the caller.
		dirty := e.llc.Payload(v, v.DEWay).Dirty || forceDirty
		e.llc.Unfuse(v)
		e.llc.Payload(v, v.DataWay).Dirty = dirty
		return true
	}
	// Dropping a spilled DE only invalidates the DE way; whether the
	// block's data line is resident is unchanged from the probe above.
	e.llc.DropDE(v)
	return v.HasData()
}

// handleEvicted disposes of a line displaced from the LLC.
func (e *Engine) handleEvicted(t sim.Cycle, ev llc.Evicted) {
	switch ev.Kind {
	case llc.KindData:
		if e.llc.Mode() == llc.Inclusive {
			e.backInvalidate(t, ev)
			return
		}
		if ev.Dirty && !e.home.Corrupted(ev.Addr) {
			e.home.WriteBack(t, e.p.Socket, ev.Addr)
		}
		// While the home block is corrupted its data lives only in the
		// caches: writing the line back would destroy the directory
		// entries housed in the block, so the line is dropped and memory
		// is restored later by the last-copy retrieval of §III-D4. Any
		// drop may remove the socket's last copy, so the home
		// socket-level directory must learn about it.
		e.maybeSocketEvict(t, ev.Addr)
	case llc.KindSpilled, llc.KindFused:
		if !ev.Entry.Live() {
			panic("core: dead directory entry housed in LLC")
		}
		if e.llc.Mode() == llc.Inclusive {
			// §III-F: an inclusive LLC victimizes blocks together with
			// their housed entries; the eviction is an inclusion eviction
			// (forced invalidations), never a WB_DE to memory.
			dirty := ev.Kind == llc.KindFused && ev.Dirty
			if e.invalidateHolders(ev.Addr, ev.Entry, &e.stats.InclusionInvals) {
				e.record(coher.MsgPutM)
				dirty = true
			}
			if dirty {
				e.home.WriteBack(t, e.p.Socket, ev.Addr)
			}
			e.maybeSocketEvict(t, ev.Addr)
			return
		}
		// The ZeroDEV mechanism of §III-D: a live directory entry leaves
		// the LLC by overwriting the block's home memory copy. No
		// invalidation is ever sent to a private cache.
		e.stats.DEEvictionsToMemory++
		e.record(coher.MsgWBDE)
		e.home.WBDE(t, e.p.Socket, ev.Addr, ev.Entry)
	}
}

// backInvalidate enforces inclusion: a data block leaving an inclusive
// LLC invalidates its private copies and frees its directory entry.
// These forced invalidations are inclusion victims, not DEVs.
func (e *Engine) backInvalidate(t sim.Cycle, ev llc.Evicted) {
	v := e.llc.Probe(ev.Addr) // the data line is already gone; a spilled DE may remain
	ent, loc := e.findDE(ev.Addr, v)
	dirty := ev.Dirty
	if loc != locNone {
		if e.invalidateHolders(ev.Addr, ent, &e.stats.InclusionInvals) {
			e.record(coher.MsgPutM)
			dirty = true
		}
		switch loc {
		case locDir:
			e.dir.Free(ev.Addr)
		case locLLC:
			// v is the probe that located the DE; the invalidations above
			// touch only private caches, so it is still current.
			e.llc.DropDE(v)
			e.stats.DEFreedInLLC++
		}
	}
	if dirty && !e.home.Corrupted(ev.Addr) {
		e.home.WriteBack(t, e.p.Socket, ev.Addr)
	}
	e.maybeSocketEvict(t, ev.Addr)
}

// processDEVs performs the invalidations a baseline directory eviction
// demands: every private copy the victim entry tracked becomes a DEV.
// Dirty copies are retrieved into the LLC (§I-A1's freqmine discussion).
func (e *Engine) processDEVs(t sim.Cycle, victims []directory.Victim) {
	for _, w := range victims {
		if !w.Entry.Live() {
			continue
		}
		if e.invalidateHolders(w.Addr, w.Entry, &e.stats.DEVs) {
			e.stats.DEVDirtyRetrievals++
			e.record(coher.MsgPutM)
			e.fillLLCData(t, w.Addr, true)
		} else {
			e.maybeSocketEvict(t, w.Addr)
		}
	}
}

// invalidateHolders invalidates every private copy ent tracks for addr,
// counting each in *count, and reports whether one was modified. It is
// the fan-out of every invalidation the requester did not ask for: DEVs,
// inclusion victims and another socket's exclusive request.
func (e *Engine) invalidateHolders(addr coher.Addr, ent coher.Entry, count *uint64) (dirty bool) {
	ent.Holders().ForEach(func(h coher.CoreID) {
		prev := e.cores[h].Invalidate(addr)
		if prev == coher.PrivInvalid {
			panic(fmt.Sprintf("core: core %d holds no copy of %#x its directory entry tracks", h, uint64(addr)))
		}
		*count++
		e.record(coher.MsgInv)
		e.record(coher.MsgInvAck)
		if prev == coher.PrivModified {
			dirty = true
		}
	})
	return dirty
}

// fillLLCData delivers block data to the LLC: updates a resident line's
// dirty bit or allocates a new line, handling the displaced victim.
func (e *Engine) fillLLCData(t sim.Cycle, addr coher.Addr, dirty bool) {
	v := e.llc.Probe(addr)
	if v.HasData() {
		p := e.llc.Payload(v, v.DataWay)
		p.Dirty = p.Dirty || dirty
		e.llc.Touch(v)
		return
	}
	if ev, ok := e.llc.InsertData(addr, dirty); ok {
		e.handleEvicted(t, ev)
	}
}

// touchLLC applies the access-time replacement update for addr (the
// B-then-spilled-EB order of spLRU).
func (e *Engine) touchLLC(addr coher.Addr) {
	if v := e.llc.Probe(addr); v.HasData() || v.HasDE() {
		e.llc.Touch(v)
	}
}
