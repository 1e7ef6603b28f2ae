package core

import (
	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// This file implements the socket-facing operations a multi-socket home
// agent invokes on a remote socket's engine: serving forwarded requests
// (Fig. 15 steps 5-7) and invalidating a socket's copies on exclusive
// requests from elsewhere.

// ServeForwarded handles an inter-socket forwarded request arriving at
// this socket (socket F in Fig. 15). withDE supplies the directory
// entry extracted from home memory on the DENF_NACK retry path; when
// nil the socket must locate the entry itself. exclusive distinguishes
// GetX-style forwards (invalidate everything here) from GetS-style
// (downgrade to shared).
//
// found=false reproduces the DENF_NACK case: the socket has neither the
// directory entry nor (in this synchronous model) an eviction-buffer
// copy. dirty reports whether the block's latest value was modified
// here.
func (e *Engine) ServeForwarded(t sim.Cycle, addr coher.Addr, exclusive bool, withDE *coher.Entry) (found, dirty bool) {
	v := e.llc.Probe(addr)
	ent, loc := e.findDE(addr, v)
	if loc == locNone && withDE == nil {
		if _, live := e.home.Segment(e.p.Socket, addr); live {
			// Step 7: the entry lives in the corrupted home block; NACK
			// so home re-sends the request with the entry (steps 8-11).
			e.record(coher.MsgDENFNack)
			return false, false
		}
		// No core copies exist here; the socket's LLC may still hold the
		// block and can serve the request directly.
		if v.HasData() && !v.Fused {
			if exclusive {
				d := e.llc.Payload(v, v.DataWay).Dirty
				e.llc.InvalidateData(v)
				return true, d
			}
			return true, false
		}
		e.record(coher.MsgDENFNack)
		return false, false
	}
	if loc == locNone {
		ent = e.reconcileImprecise(addr, *withDE)
	}
	if exclusive {
		return true, e.invalidateLocal(t, addr, ent, true, loc, v)
	}
	// GetS-style: downgrade the local owner (if any) so the block
	// becomes shared system-wide; sharers and LLC lines stay.
	if ent.State == coher.DirOwned {
		prev := e.cores[ent.Owner].Downgrade(addr)
		dirty = prev == coher.PrivModified
		var next coher.Entry
		next.State = coher.DirShared
		next.Sharers.Add(ent.Owner)
		if dirty {
			e.fillLLCData(t, addr, true)
		}
		e.storeDE(t, addr, next)
		return true, dirty
	}
	if loc == locNone {
		// The entry arrived from home memory (DENF_NACK retry); the
		// socket concludes the request and re-houses the entry on chip,
		// and home clears the consumed segment.
		e.storeDE(t, addr, ent)
	}
	return true, false
}

// InvalidateSocketCopies removes every copy of addr from this socket —
// private caches, LLC data lines, and the housed directory entry —
// serving an exclusive request from another socket. It reports whether
// a modified copy existed (the requester receives the dirty data).
// Invalidations counted here are demand invalidations, not DEVs.
func (e *Engine) InvalidateSocketCopies(t sim.Cycle, addr coher.Addr) (dirty bool) {
	v := e.llc.Probe(addr)
	ent, loc := e.findDE(addr, v)
	return e.invalidateLocal(t, addr, ent, loc != locNone, loc, v)
}

// InvalidateSocketCopiesWithDE is InvalidateSocketCopies for the case
// where the socket's directory entry was extracted from home memory
// (the copies exist but their tracking lives off-chip).
func (e *Engine) InvalidateSocketCopiesWithDE(t sim.Cycle, addr coher.Addr, ent coher.Entry) (dirty bool) {
	v := e.llc.Probe(addr)
	_, loc := e.findDE(addr, v)
	ent = e.reconcileImprecise(addr, ent)
	return e.invalidateLocal(t, addr, ent, true, loc, v)
}

func (e *Engine) invalidateLocal(t sim.Cycle, addr coher.Addr, ent coher.Entry, known bool, loc deLoc, v llc.View) (dirty bool) {
	if known && ent.Live() {
		dirty = e.invalidateHolders(addr, ent, &e.stats.DemandInvals)
	}
	switch loc {
	case locDir:
		e.dir.Free(addr)
	case locLLC:
		e.llc.DropDE(e.llc.Probe(addr))
		e.stats.DEFreedInLLC++
	}
	if v2 := e.llc.Probe(addr); v2.HasData() && !v2.Fused {
		if e.llc.Payload(v2, v2.DataWay).Dirty {
			dirty = true
		}
		e.llc.InvalidateData(v2)
	}
	return dirty
}

// HasAnyCopy reports whether the socket holds the block anywhere
// (private caches via directory state, or the LLC), used by invariant
// checks in the socket layer.
func (e *Engine) HasAnyCopy(addr coher.Addr) bool {
	v := e.llc.Probe(addr)
	if v.HasData() || v.HasDE() {
		return true
	}
	_, ok := e.dir.Lookup(addr)
	return ok
}
