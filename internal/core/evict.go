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

	v := e.llc.Probe(addr)
	v = e.maybeCorruptDE(t, addr, v)
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
	e.proto.LastHolderGone(t, addr, state, v)
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
// the socket. Only backends that can lose the entry to home memory
// (zerodev's corrupted-block housing, Fig. 16) have a real flow here;
// the rest treat it as a protocol bug.
func (e *Engine) evictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	e.proto.EvictNoDE(t, c, addr, state)
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
