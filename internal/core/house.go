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
// live — and what a housing conflict costs — is the backend's call, so
// the body dispatches to the protocol object.
func (e *Engine) storeDEView(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (after llc.View, known bool) {
	if !ent.Live() {
		panic("core: storeDE with a dead entry; use freeDE")
	}
	return e.proto.StoreDE(t, addr, ent, v, haveView)
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
			ev.Entry.Holders().ForEach(func(h coher.CoreID) {
				prev := e.cores[h].Invalidate(ev.Addr)
				if prev == coher.PrivInvalid {
					panic("core: inclusion victim not present in tracked core")
				}
				e.stats.InclusionInvals++
				e.record(coher.MsgInv)
				e.record(coher.MsgInvAck)
				if prev == coher.PrivModified {
					e.record(coher.MsgPutM)
					dirty = true
				}
			})
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
		ent.Holders().ForEach(func(h coher.CoreID) {
			prev := e.cores[h].Invalidate(ev.Addr)
			if prev == coher.PrivInvalid {
				panic("core: inclusion victim not present in tracked core")
			}
			e.stats.InclusionInvals++
			e.record(coher.MsgInv)
			e.record(coher.MsgInvAck)
			if prev == coher.PrivModified {
				e.record(coher.MsgPutM)
				dirty = true
			}
		})
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
	for _, v := range victims {
		if !v.Entry.Live() {
			continue
		}
		dirty := false
		v.Entry.Holders().ForEach(func(h coher.CoreID) {
			prev := e.cores[h].Invalidate(v.Addr)
			if prev == coher.PrivInvalid {
				panic(fmt.Sprintf("core: DEV holder %d does not cache %#x", h, uint64(v.Addr)))
			}
			e.stats.DEVs++
			e.record(coher.MsgInv)
			e.record(coher.MsgInvAck)
			if prev == coher.PrivModified {
				dirty = true
			}
		})
		if dirty {
			e.stats.DEVDirtyRetrievals++
			e.record(coher.MsgPutM)
			e.fillLLCData(t, v.Addr, true)
		} else {
			e.maybeSocketEvict(t, v.Addr)
		}
	}
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
