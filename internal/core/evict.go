package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Evict handles an eviction notice from core c for a block leaving its
// private hierarchy in the given state: PutS and PutE carry no data
// (PutE carries reconstruction low bits under ZeroDEV), PutM carries the
// full block. All evictions are notified to keep the directory precise
// (§III-A). The core does not block on evictions.
func (e *Engine) Evict(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	e.stats.Evictions++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	switch state {
	case coher.PrivShared:
		e.record(coher.MsgPutS)
	case coher.PrivExclusive:
		e.record(coher.MsgPutE)
	case coher.PrivModified:
		e.record(coher.MsgPutM)
	default:
		panic(fmt.Sprintf("core: eviction notice in state %v", state))
	}

	v := e.maybeCorruptDE(t, addr, e.llc.Probe(addr))
	ent, loc := e.findDE(addr, v)
	if loc == locNone {
		e.evictNoDE(t, c, addr, state)
		return
	}
	switch ent.State {
	case coher.DirOwned:
		if ent.Owner != c {
			panic(fmt.Sprintf("core: eviction by %d of %#x owned by %d", c, uint64(addr), ent.Owner))
		}
	case coher.DirShared:
		if !ent.Sharers.Contains(c) {
			panic(fmt.Sprintf("core: eviction by non-sharer %d of %#x", c, uint64(addr)))
		}
		if state != coher.PrivShared {
			panic(fmt.Sprintf("core: %v eviction of a shared-state block %#x", state, uint64(addr)))
		}
	}

	freed := ent.RemoveHolder(c)
	if (state == coher.PrivModified || state == coher.PrivExclusive) && !freed {
		panic("core: M/E eviction left other holders")
	}

	if !freed {
		e.storeDETouch(t, addr, ent, v)
		return
	}

	// The last private copy left the socket's cores.
	if v.Fused && !e.fusedDataUsable && e.p.Policy == FuseAll && state == coher.PrivShared {
		// FuseAll: the home retrieves the low 4+N bits from the last
		// sharer's eviction buffer to reconstruct the fused block
		// (§III-C3). DLS's tag-side tracking never displaced them.
		e.stats.LastSharerRetrievals++
		e.record(coher.MsgLastSharerAck)
	}
	blockInLLC := e.freeDE(t, addr, state == coher.PrivModified, v)
	switch {
	case state == coher.PrivModified:
		// The dirty writeback allocates (or updates) the LLC line.
		e.fillLLCData(t, addr, true)
		blockInLLC = true
	case state == coher.PrivExclusive && e.llc.Mode() == llc.EPD:
		// EPD allocates the block in the LLC on owner eviction (§III-E).
		e.fillLLCData(t, addr, false)
		blockInLLC = true
	}
	if !blockInLLC {
		e.socketEvictNotice(t, addr)
	}
}

// evictNoDE handles an eviction notice whose directory entry is not on
// the socket. Only backends that write entries back into home memory
// can lose one that way: the entry lives in the corrupted home block
// (Fig. 16). Anywhere else it is a protocol bug.
func (e *Engine) evictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	if !e.usesHomeSegments {
		panic(fmt.Sprintf("core: the %s backend lost the directory entry for %#x", e.p.Backend, uint64(addr)))
	}
	if state == coher.PrivModified {
		// Full cache block: the evicting core is the system-wide owner;
		// execute the baseline writeback-to-home flow, restoring the
		// corrupted memory copy. If the socket now holds nothing, the
		// socket-level directory learns about it too.
		e.home.WriteBack(t, e.p.Socket, addr)
		if !e.llc.Probe(addr).HasData() {
			e.socketEvictNotice(t, addr)
		}
		return
	}
	// GET_DE: fetch the corrupted block, extract this socket's entry,
	// drop the evicting core, and write the updated entry back.
	e.stats.GetDEFlows++
	e.record(coher.MsgGetDE)
	de, _, ok := e.home.GetDE(t, e.p.Socket, addr)
	if !ok {
		panic(fmt.Sprintf("core: eviction notice for untracked block %#x", uint64(addr)))
	}
	// Wide sockets: the segment may decode imprecisely. The evicting
	// core has already dropped its copy, so reconciliation may return a
	// dead entry — that IS the last-holder-gone case.
	de = e.reconcileImprecise(addr, de)
	if de.Live() && !de.RemoveHolder(c) {
		e.home.PutDE(t, e.p.Socket, addr, de)
		return
	}
	e.home.PutDE(t, e.p.Socket, addr, coher.Entry{})
	if e.llc.Probe(addr).HasData() {
		// The socket still holds the block in its LLC.
		return
	}
	e.socketEvictNotice(t, addr)
}

// socketEvictNotice informs home that this socket no longer holds the
// block anywhere; when home reports the memory copy corrupted and this
// was the system-wide last copy, the block travels back with the notice
// to restore memory (§III-D4).
func (e *Engine) socketEvictNotice(t sim.Cycle, addr coher.Addr) {
	e.stats.SocketEvictNotices++
	e.record(coher.MsgSocketEvict)
	if e.home.SocketEvict(t, e.p.Socket, addr) {
		e.stats.LastCopyRetrievals++
		e.record(coher.MsgPutM) // the full block travels to home
		e.home.WriteBack(t, e.p.Socket, addr)
	}
}

// maybeSocketEvict sends the socket-level eviction notice when the
// socket no longer holds the block anywhere: no directory entry
// (on-chip or in a home-memory segment), no LLC line. Keeping the
// socket-level directory precise this way is what lets forwarded
// requests trust it (§III-D).
func (e *Engine) maybeSocketEvict(t sim.Cycle, addr coher.Addr) {
	if _, ok := e.dir.Lookup(addr); ok {
		return // holders exist in the socket
	}
	if v := e.llc.Probe(addr); v.HasData() || v.HasDE() {
		return
	}
	if _, live := e.home.Segment(e.p.Socket, addr); live {
		return // holders exist; their entry lives in home memory
	}
	e.socketEvictNotice(t, addr)
}
