package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Read handles a GetS from core c: a data read or (code=true) an
// instruction fetch. It returns the completion time and the private
// state granted (S, or E when no other copies exist; code blocks are
// always granted S to accelerate code sharing, §III-A).
func (e *Engine) Read(t sim.Cycle, c coher.CoreID, addr coher.Addr, code bool) (done sim.Cycle, granted coher.PrivState) {
	e.stats.Reads++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	t1 := e.arrive(t, c, addr, coher.MsgGetS)
	v := e.maybeCorruptDE(t1, addr, e.llc.Probe(addr))
	ent, loc := e.findDE(addr, v)
	if e.conflict != nil && loc == locNone {
		t1 = e.admit(t1, addr)
	}

	fwdBefore, memBefore := e.stats.Forwards3Hop, e.stats.LLCMisses
	done, granted = e.serveRead(t1, c, addr, code, v, ent, loc)
	// Classify the serving path for the latency breakdown: forwarded
	// (three-hop) beats memory beats LLC hit when several fired along a
	// corrupted-recovery chain.
	lat := uint64(done - t)
	switch {
	case e.stats.Forwards3Hop > fwdBefore:
		e.stats.LatReadForward += lat
		e.stats.NReadForward++
	case e.stats.LLCMisses > memBefore:
		e.stats.LatReadMemory += lat
		e.stats.NReadMemory++
	default:
		e.stats.LatReadLLCHit += lat
		e.stats.NReadLLCHit++
	}
	return done, granted
}

// serveRead dispatches a read on the entry found for addr at v: on
// arrival, and again after an entry was recovered from a corrupted home
// block.
func (e *Engine) serveRead(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, code bool, v llc.View, ent coher.Entry, loc deLoc) (sim.Cycle, coher.PrivState) {
	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		return e.readFromOwner(t1, c, addr, ent)
	case loc != locNone && ent.State == coher.DirShared:
		return e.readShared(t1, c, addr, ent, loc, v)
	}
	return e.readNoDE(t1, c, addr, code, v)
}

// readFromOwner serves a read whose block is owned by another core: the
// request is forwarded and the owner responds directly to the requester
// (three-hop path, §III-A).
func (e *Engine) readFromOwner(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry) (sim.Cycle, coher.PrivState) {
	owner := ent.Owner
	if owner == c {
		panic(fmt.Sprintf("core: core %d read-missed a block it owns (%#x)", c, uint64(addr)))
	}
	bank := e.bankOf(addr)
	e.record(coher.MsgFwd)
	e.stats.Forwards3Hop++
	t2 := t1 + e.mesh.BankToCore(bank, owner) + e.p.OwnerLookupCycles
	prev := e.cores[owner].Downgrade(addr)
	if prev != coher.PrivModified && prev != coher.PrivExclusive {
		panic(fmt.Sprintf("core: directory owner %d holds %#x in %v", owner, uint64(addr), prev))
	}
	e.record(coher.MsgData)      // owner → requester
	e.record(coher.MsgBusyClear) // owner → home (carries low bits under ZeroDEV)
	done := t2 + e.mesh.CoreToCore(owner, c)

	// Data movement accompanying the downgrade: a modified owner writes
	// the block back to the home LLC; an exclusive owner's data is clean,
	// but EPD allocates the now-shared block in the LLC to accelerate
	// future sharing (§III-E).
	if prev == coher.PrivModified {
		e.record(coher.MsgPutM)
		e.fillLLCData(t1, addr, true)
	} else if e.llc.Mode() == llc.EPD {
		e.fillLLCData(t1, addr, false)
	}

	var next coher.Entry
	next.State = coher.DirShared
	next.Sharers.Add(owner)
	next.Sharers.Add(c)
	e.storeDE(t1, addr, next)
	e.touchLLC(addr)
	return done, coher.PrivShared
}

// readShared serves a read of a block in the shared state: from the LLC
// when a usable data line exists, otherwise forwarded to an elected
// sharer.
func (e *Engine) readShared(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, loc deLoc, v llc.View) (sim.Cycle, coher.PrivState) {
	bank := e.bankOf(addr)
	next := ent
	next.Sharers.Add(c)

	if e.usableData(v) {
		// The LLC can serve the read. Under SpillAll a co-resident spilled
		// entry is read out of the data array first, lengthening the
		// critical path by one data-array access; FPSS reads the block
		// first and updates the entry off the critical path (§III-C2).
		lat := e.p.DataCycles
		if loc == locLLC && e.spillAllPenalty {
			lat += e.p.DataCycles
			e.stats.SpillAllExtraDataReads++
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + lat + e.mesh.BankToCore(bank, c)
		e.storeDETouch(t1, addr, next, v)
		return done, coher.PrivShared
	}

	// No usable LLC data: either the block is absent (directory hit, LLC
	// miss) or it is a FuseAll fused line whose block part is corrupted
	// (§III-C3). Forward to an elected sharer.
	e.stats.LLCMisses++
	f := ent.Sharers.First()
	if f == c {
		panic("core: requester already recorded as a sharer on a miss")
	}
	e.record(coher.MsgFwd)
	e.record(coher.MsgData)
	e.stats.Forwards3Hop++
	done := t1 + e.mesh.BankToCore(bank, f) + e.p.OwnerLookupCycles + e.mesh.CoreToCore(f, c)
	e.storeDETouch(t1, addr, next, v)
	return done, coher.PrivShared
}

// readNoDE serves a read with no directory entry on the socket: an
// uncore hit on the LLC block (case iii of §III-D2), a socket miss
// (case iv), or the rare corrupted fallbacks.
func (e *Engine) readNoDE(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, code bool, v llc.View) (sim.Cycle, coher.PrivState) {
	bank := e.bankOf(addr)

	if e.usableData(v) {
		// Case iii. The LLC replacement extensions guarantee no holders
		// exist in the socket (sub-case iiia); under a policy without that
		// guarantee the home block may be corrupted with our segment live
		// (sub-case iiib), detected through the socket directory.
		if de, d0, ok := e.getDE(t1, addr); ok {
			v, ent, loc := e.rehouse(d0, addr, de)
			return e.serveRead(d0, c, addr, code, v, ent, loc)
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
		granted := coher.PrivExclusive
		if code || e.home.SharedElsewhere(e.p.Socket, addr) {
			granted = coher.PrivShared
		}
		if granted == coher.PrivExclusive {
			// The block becomes temporarily private.
			e.privatize(&v)
		}
		e.storeDETouch(t1, addr, e.freshEntry(c, granted), v)
		return done, granted
	}

	// Case iv: socket miss.
	e.stats.LLCMisses++
	res := e.home.FetchBlock(t1, e.p.Socket, addr, false)
	if res.DE != nil {
		// The home block was corrupted and carried our directory entry;
		// re-house it and finish as a directory hit with an LLC data miss.
		e.stats.CorruptedReadMisses++
		v, ent, loc := e.rehouse(res.Done, addr, *res.DE)
		return e.serveRead(res.Done, c, addr, code, v, ent, loc)
	}
	granted := coher.PrivExclusive
	if code || res.SharedGrant {
		granted = coher.PrivShared
	}
	// Demand fills from memory allocate in the LLC (§III-A), except under
	// EPD where blocks granted in E stay exclusive to the private caches.
	if e.llc.Mode() != llc.EPD || granted == coher.PrivShared {
		e.fillLLCData(t1, addr, false)
	}
	e.record(coher.MsgData)
	done := res.Done + e.mesh.BankToCore(bank, c)
	e.storeDE(t1, addr, e.freshEntry(c, granted))
	e.touchLLC(addr)
	return done, granted
}

// freshEntry builds the directory entry for a block newly granted to c.
func (e *Engine) freshEntry(c coher.CoreID, granted coher.PrivState) coher.Entry {
	var ent coher.Entry
	if granted == coher.PrivShared {
		ent.State = coher.DirShared
		ent.Sharers.Add(c)
	} else {
		ent.State = coher.DirOwned
		ent.Owner = c
	}
	return ent
}
