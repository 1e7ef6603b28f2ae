package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Write handles a GetX from core c: a store miss requesting the block
// in M state. Invalidation acknowledgements flow to the requester; the
// completion time is the later of the data arrival and the last ack.
func (e *Engine) Write(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	e.stats.Writes++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	t1 := e.arrive(t, c, addr, coher.MsgGetX)
	v := e.maybeCorruptDE(t1, addr, e.llc.Probe(addr))
	ent, loc := e.findDE(addr, v)
	if e.conflict != nil && loc == locNone {
		t1 = e.admit(t1, addr)
	}
	return e.serveWrite(t1, c, addr, v, ent, loc)
}

// serveWrite dispatches a GetX on the entry found for addr at v: on
// arrival, and again after an entry was recovered from a corrupted home
// block.
func (e *Engine) serveWrite(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, v llc.View, ent coher.Entry, loc deLoc) sim.Cycle {
	switch {
	case loc != locNone && ent.State == coher.DirOwned:
		return e.writeFromOwner(t1, c, addr, ent, v)
	case loc != locNone && ent.State == coher.DirShared:
		return e.writeShared(t1, c, addr, ent, v)
	}
	return e.writeNoDE(t1, c, addr, v)
}

// writeFromOwner transfers ownership: the request is forwarded to the
// owner, which invalidates its copy and responds directly (three-hop).
func (e *Engine) writeFromOwner(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, v llc.View) sim.Cycle {
	owner := ent.Owner
	if owner == c {
		panic(fmt.Sprintf("core: core %d write-missed a block it owns (%#x)", c, uint64(addr)))
	}
	bank := e.bankOf(addr)
	e.record(coher.MsgFwd)
	e.stats.Forwards3Hop++
	t2 := t1 + e.mesh.BankToCore(bank, owner) + e.p.OwnerLookupCycles
	prev := e.cores[owner].Invalidate(addr)
	if prev != coher.PrivModified && prev != coher.PrivExclusive {
		panic(fmt.Sprintf("core: directory owner %d holds %#x in %v", owner, uint64(addr), prev))
	}
	e.stats.DemandInvals++
	e.record(coher.MsgData)      // owner → requester
	e.record(coher.MsgBusyClear) // owner → home
	done := t2 + e.mesh.CoreToCore(owner, c)

	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return done
}

// writeShared invalidates all sharers and supplies the data, from the
// LLC when possible, otherwise from an elected sharer with the
// invalidation folded into the forward (§III-C3).
func (e *Engine) writeShared(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, ent coher.Entry, v llc.View) sim.Cycle {
	if ent.Sharers.Contains(c) {
		panic("core: GetX from a core already sharing the block (should be an upgrade)")
	}
	bank := e.bankOf(addr)
	ackDone := e.invalidateSharers(t1, c, addr, ent.Sharers)

	var dataDone sim.Cycle
	if e.usableData(v) {
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		dataDone = t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
	} else {
		// Forward combined with the invalidation to the elected sharer:
		// the critical path matches the baseline (§III-C3).
		elected := ent.Sharers.First()
		e.stats.LLCMisses++
		e.stats.Forwards3Hop++
		e.record(coher.MsgFwd)
		e.record(coher.MsgData)
		dataDone = t1 + e.mesh.BankToCore(bank, elected) + e.p.OwnerLookupCycles + e.mesh.CoreToCore(elected, c)
	}

	e.privatize(&v)
	// Other sockets sharing the block must be invalidated before the
	// core takes it to M.
	acq := e.home.AcquireExclusive(t1, e.p.Socket, addr)
	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return max2(max2(dataDone, ackDone), acq)
}

// writeNoDE serves a GetX with no directory entry on the socket.
func (e *Engine) writeNoDE(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, v llc.View) sim.Cycle {
	bank := e.bankOf(addr)
	if e.usableData(v) {
		if de, d0, ok := e.getDE(t1, addr); ok {
			v, ent, loc := e.rehouse(d0, addr, de)
			return e.serveWrite(d0, c, addr, v, ent, loc)
		}
		e.stats.LLCDataHits++
		e.record(coher.MsgData)
		done := t1 + e.p.DataCycles + e.mesh.BankToCore(bank, c)
		e.privatize(&v)
		done = max2(done, e.home.AcquireExclusive(t1, e.p.Socket, addr))
		e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
		return done
	}
	e.stats.LLCMisses++
	res := e.home.FetchBlock(t1, e.p.Socket, addr, true)
	if res.DE != nil {
		v, ent, loc := e.rehouse(res.Done, addr, *res.DE)
		return e.serveWrite(res.Done, c, addr, v, ent, loc)
	}
	if e.llc.Mode() != llc.EPD {
		e.fillLLCData(t1, addr, false)
	}
	e.record(coher.MsgData)
	done := res.Done + e.mesh.BankToCore(bank, c)
	e.storeDE(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c})
	e.touchLLC(addr)
	return done
}

// Upgrade handles an S→M upgrade: the requester already holds the block
// in S; other sharers are invalidated and a dataless response carries
// the expected ack count.
func (e *Engine) Upgrade(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	e.stats.Upgrades++
	e.llc.Protect(addr)
	defer e.llc.Unprotect()
	t1 := e.arrive(t, c, addr, coher.MsgUpg)
	v := e.maybeCorruptDE(t1, addr, e.llc.Probe(addr))
	ent, loc := e.findDE(addr, v)
	// The requester's entry must exist, so an upgrade never allocates one
	// and pays no admission charge. Under ZeroDEV the entry may live in
	// home memory (corrupted block).
	if loc == locNone {
		de, d0, ok := e.getDE(t1, addr)
		if !ok {
			panic(fmt.Sprintf("core: upgrade for %#x with no directory entry", uint64(addr)))
		}
		v, ent, loc = e.rehouse(d0, addr, de)
		t1 = d0
	}
	if ent.State != coher.DirShared || !ent.Sharers.Contains(c) {
		panic(fmt.Sprintf("core: upgrade for %#x in state %v without requester sharing", uint64(addr), ent.State))
	}

	// For upgrades only the entry is read out; when it is housed in the
	// LLC data array that costs one data-array access (§III-C2). DLS
	// entries live tag-side, already covered by the tag lookup.
	deLat := sim.Cycle(0)
	if loc == locLLC && e.deInDataArray {
		deLat = e.p.DataCycles
	}

	bank := e.bankOf(addr)
	ackDone := e.invalidateSharers(t1, c, addr, ent.Sharers)
	e.record(coher.MsgDataless)
	done := max2(t1+deLat+e.mesh.BankToCore(bank, c), ackDone)
	done = max2(done, e.home.AcquireExclusive(t1, e.p.Socket, addr))

	e.privatize(&v)
	e.storeDETouch(t1, addr, coher.Entry{State: coher.DirOwned, Owner: c}, v)
	return done
}

// invalidateSharers invalidates every sharer but c of a block c takes
// to M (GetX or upgrade) and returns when the last acknowledgement
// reaches c.
func (e *Engine) invalidateSharers(t1 sim.Cycle, c coher.CoreID, addr coher.Addr, sharers coher.CoreSet) sim.Cycle {
	bank := e.bankOf(addr)
	ackDone := t1
	sharers.ForEach(func(s coher.CoreID) {
		if s == c {
			return
		}
		if prev := e.cores[s].Invalidate(addr); prev != coher.PrivShared {
			panic(fmt.Sprintf("core: sharer %d holds %#x in %v", s, uint64(addr), prev))
		}
		e.stats.DemandInvals++
		e.record(coher.MsgInv)
		e.record(coher.MsgInvAck)
		ackDone = max2(ackDone, t1+e.mesh.BankToCore(bank, s)+1+e.mesh.CoreToCore(s, c))
	})
	return ackDone
}

// privatize deallocates the block's LLC data line from v under EPD,
// where a block taken private leaves the LLC (§III-E).
func (e *Engine) privatize(v *llc.View) {
	if e.llc.Mode() == llc.EPD && v.HasData() && !v.Fused {
		e.llc.InvalidateData(*v)
		v.DataWay = -1
	}
}
