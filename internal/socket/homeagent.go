package socket

import (
	"fmt"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
)

// homeAgent implements core.Home for one socket of the multi-socket
// system: every off-socket flow goes through the home socket of the
// block, its socket-level directory, and home memory.
type homeAgent struct {
	sys    *System
	socket int
}

// socketServeCycles approximates the uncore time a forwarded request
// spends inside the serving socket (directory slice + private hierarchy
// retrieval).
const socketServeCycles = sim.Cycle(20)

func (h *homeAgent) homeOf(addr coher.Addr) int {
	p := h.sys.P
	if p.HomeGroups <= 1 {
		return int(uint64(addr) % uint64(p.Sockets))
	}
	// Hierarchical distribution: interleave homes across groups first,
	// then across the sockets of the selected group.
	per := p.Sockets / p.HomeGroups
	grp := int(uint64(addr) % uint64(p.HomeGroups))
	return grp*per + int(uint64(addr)/uint64(p.HomeGroups)%uint64(per))
}

func (h *homeAgent) inter(a, b int) sim.Cycle {
	if a == b {
		return 0
	}
	p := h.sys.P
	if p.HomeGroups > 1 && p.IntraGroupCycles > 0 {
		per := p.Sockets / p.HomeGroups
		if a/per == b/per {
			return p.IntraGroupCycles
		}
	}
	return p.InterSocketCycles
}

// --- socket-level directory cache with the two backing schemes ---------------

func (sys *System) lookupSocketEntry(t sim.Cycle, addr coher.Addr) (coher.SocketEntry, sim.Cycle) {
	if set, way, ok := sys.dirCache.Lookup(uint64(addr)); ok {
		sys.dirCache.Touch(set, way)
		return coher.UnpackSocketEntry(*sys.dirCache.Payload(set, way)), t + 2
	}
	sys.stats.DirCacheMisses++
	switch sys.P.Backing {
	case MemoryBackup:
		// The home-memory backup region always holds the entry; a miss
		// costs one DRAM read, issued in parallel with the demand path
		// (home memory is looked up anyway on the flows that miss here),
		// so it contributes bank occupancy and traffic but only a small
		// serialization charge.
		w := sys.backup[addr]
		sys.dram.Read(t, uint64(addr), dram.KindData)
		sys.fillDirCache(t, addr, w)
		return coher.UnpackSocketEntry(w), t + 4
	default: // DirEvictBit
		if e, ok := sys.mem.DirEvict(addr); ok {
			sys.stats.DirEvictBitHits++
			sys.dram.Read(t, uint64(addr), dram.KindData)
			sys.mem.ClearDirEvict(addr)
			sys.fillDirCache(t, addr, e.Pack())
			return e, t + 4
		}
		return coher.SocketEntry{}, t + 2
	}
}

func (sys *System) storeSocketEntry(t sim.Cycle, addr coher.Addr, e coher.SocketEntry) {
	w := e.Pack()
	if sys.P.Backing == MemoryBackup {
		if sys.backup == nil {
			sys.backup = make(map[coher.Addr]uint64)
		}
		if e.Live() {
			sys.backup[addr] = w
		} else {
			delete(sys.backup, addr)
		}
	}
	set, way, ok := sys.dirCache.Lookup(uint64(addr))
	if !e.Live() {
		if ok {
			sys.dirCache.Invalidate(set, way)
		}
		if sys.P.Backing == DirEvictBit {
			sys.mem.ClearDirEvict(addr)
		}
		return
	}
	if ok {
		*sys.dirCache.Payload(set, way) = w
		sys.dirCache.Touch(set, way)
		return
	}
	sys.fillDirCache(t, addr, w)
}

// fillDirCache inserts a packed entry, handling the eviction per the
// backing scheme. Owned entries get higher replacement priority (§III-D5)
// to minimize corrupted shared blocks.
func (sys *System) fillDirCache(t sim.Cycle, addr coher.Addr, w uint64) {
	set := sys.dirCache.SetIndex(uint64(addr))
	way, free := sys.dirCache.FreeWay(set)
	if !free {
		vw, ok := sys.dirCache.VictimWhere(set, func(_ int, p *uint64) bool {
			return coher.UnpackSocketEntry(*p).State == coher.SockOwned
		})
		if !ok {
			vw = sys.dirCache.Victim(set)
		}
		way = vw
		victim := coher.UnpackSocketEntry(*sys.dirCache.Payload(set, way))
		vAddr := coher.Addr(sys.dirCache.AddrOf(set, way))
		if sys.P.Backing == DirEvictBit && victim.Live() {
			// The evicted socket-level entry is housed in the memory
			// block's reserved partition; one DirEvict bit records it.
			sys.mem.SetDirEvict(vAddr, victim)
			sys.dram.Write(t, uint64(vAddr), dram.KindData)
		}
		// MemoryBackup: the backup already holds it; the eviction is
		// silent.
		sys.dirCache.Invalidate(set, way)
	}
	sys.dirCache.Insert(set, way, uint64(addr), w)
}

// --- core.Home implementation ------------------------------------------------

// FetchBlock implements core.Home (Fig. 15).
func (h *homeAgent) FetchBlock(t sim.Cycle, s int, addr coher.Addr, exclusive bool) core.FetchResult {
	sys := h.sys
	sys.stats.SocketMisses++
	home := h.homeOf(addr)
	t1 := t + h.inter(s, home)
	ent, t1 := sys.lookupSocketEntry(t1, addr)
	corrupted := sys.mem.Corrupted(addr)
	holders := ent.Holders()

	// Case: the requesting socket is a holder but had a socket miss —
	// its directory entry must live in the corrupted home block
	// (Fig. 15 step 3: baseline flow with a special corrupted response).
	if corrupted && holders.Contains(s) {
		seg, ok := sys.mem.ReadSegment(addr, s)
		if !ok {
			panic("socket: holder socket missed with no segment in the corrupted block")
		}
		done := sys.dram.Read(t1, uint64(addr), dram.KindDE) + 1 + h.inter(home, s)
		sys.mem.ClearSegment(addr, s)
		return core.FetchResult{Done: done, DE: &seg}
	}

	switch {
	case !ent.Live():
		done := sys.dram.Read(t1, uint64(addr), dram.KindData) + h.inter(home, s)
		sys.storeSocketEntry(t1, addr, coher.SocketEntry{State: coher.SockOwned, Owner: s})
		return core.FetchResult{Done: done}

	case ent.State == coher.SockShared && !corrupted && !exclusive:
		done := sys.dram.Read(t1, uint64(addr), dram.KindData) + h.inter(home, s)
		next := ent
		next.Sharers.Add(s)
		sys.storeSocketEntry(t1, addr, next)
		return core.FetchResult{Done: done, SharedGrant: true}

	case ent.State == coher.SockShared && !corrupted && exclusive:
		done := sys.dram.Read(t1, uint64(addr), dram.KindData) + h.inter(home, s)
		holders.ForEach(func(g int) {
			if g != s {
				h.invalidateSocket(t1, g, addr)
			}
		})
		sys.storeSocketEntry(t1, addr, coher.SocketEntry{State: coher.SockOwned, Owner: s})
		return core.FetchResult{Done: done}

	default:
		// Owned by another socket, or corrupted with the requester not a
		// holder: forward to a sharer or the owner socket F (step 4).
		if holders.Empty() {
			panic("socket: corrupted block with no holder sockets")
		}
		f := holders.First()
		if f == s {
			panic("socket: socket missed a block it owns")
		}
		done := h.forward(t1, s, f, addr, exclusive)
		if exclusive {
			holders.ForEach(func(g int) {
				if g != s && g != f {
					h.invalidateSocket(t1, g, addr)
				}
			})
			sys.storeSocketEntry(t1, addr, coher.SocketEntry{State: coher.SockOwned, Owner: s})
			return core.FetchResult{Done: done, ServedBySocket: true}
		}
		var next coher.SocketEntry
		next.State = coher.SockShared
		next.Sharers = holders
		next.Sharers.Add(s)
		sys.storeSocketEntry(t1, addr, next)
		return core.FetchResult{Done: done, ServedBySocket: true, SharedGrant: true}
	}
}

// forward sends the request to socket f, running the DENF_NACK retry
// when f cannot find the directory entry (Fig. 15 steps 5-11). It
// returns the completion time at the requesting socket.
func (h *homeAgent) forward(t1 sim.Cycle, s, f int, addr coher.Addr, exclusive bool) sim.Cycle {
	sys := h.sys
	sys.stats.SocketForwards++
	home := h.homeOf(addr)
	eng := sys.Sockets[f].Engine
	tf := t1 + h.inter(home, f)
	found, dirty := eng.ServeForwarded(tf, addr, exclusive, nil)
	done := tf + socketServeCycles + h.inter(f, s)
	if !found {
		// DENF_NACK: extract F's entry from the corrupted home block and
		// resend the request with it (steps 8-11).
		sys.stats.DENFNacks++
		if sys.P.Faults != nil && sys.P.Faults.DropDENFNack(f, addr) {
			// The NACK is lost in transit: home times out and retransmits
			// the forward. The model is synchronous, so F's state cannot
			// have changed; it must NACK again, and only the timing moves.
			tf += 2 * sys.P.InterSocketCycles
			if again, _ := eng.ServeForwarded(tf, addr, exclusive, nil); again {
				panic("socket: socket state changed between a dropped NACK and its retransmission")
			}
			sys.stats.DENFNacks++
		}
		seg, ok := sys.mem.ReadSegment(addr, f)
		if !ok {
			var views string
			for i, sk := range sys.Sockets {
				views += fmt.Sprintf(" s%d:any=%v", i, sk.Engine.HasAnyCopy(addr))
			}
			panic(fmt.Sprintf("socket: DENF_NACK for socket %d with no segment: addr=%#x entry=%+v corrupted=%v%s",
				f, uint64(addr), sys.peekSocketEntry(addr), sys.mem.Corrupted(addr), views))
		}
		tn := tf + socketServeCycles + h.inter(f, home)
		tn = sys.dram.Read(tn, uint64(addr), dram.KindDE)
		sys.mem.ClearSegment(addr, f) // consumed; F re-houses the entry
		tr := tn + h.inter(home, f)
		de := seg
		if ok2, d2 := eng.ServeForwarded(tr, addr, exclusive, &de); !ok2 {
			panic("socket: retried forward with directory entry still failed")
		} else {
			dirty = d2
		}
		done = tr + socketServeCycles + h.inter(f, s)
	}
	if dirty && !exclusive {
		// Inter-socket M→S downgrade: the owner socket writes the block
		// back to home memory so future sockets can be served from there.
		sys.dram.Write(t1, uint64(addr), dram.KindData)
		sys.mem.Restore(addr)
	}
	return done
}

// invalidateSocket wipes socket g's copies of addr, reaching through a
// home-memory segment when g's directory entry lives there.
func (h *homeAgent) invalidateSocket(t sim.Cycle, g int, addr coher.Addr) {
	sys := h.sys
	eng := sys.Sockets[g].Engine
	if seg, ok := sys.mem.ReadSegment(addr, g); ok {
		eng.InvalidateSocketCopiesWithDE(t, addr, seg)
		sys.mem.ClearSegment(addr, g)
		return
	}
	eng.InvalidateSocketCopies(t, addr)
}

// WriteBack implements core.Home.
func (h *homeAgent) WriteBack(t sim.Cycle, s int, addr coher.Addr) {
	home := h.homeOf(addr)
	h.sys.dram.Write(t+h.inter(s, home), uint64(addr), dram.KindData)
	h.sys.mem.Restore(addr)
}

// WBDE implements core.Home (Fig. 14).
func (h *homeAgent) WBDE(t sim.Cycle, s int, addr coher.Addr, e coher.Entry) {
	sys := h.sys
	home := h.homeOf(addr)
	t1 := t + h.inter(s, home)
	others := sys.mem.CorruptedSockets(addr)
	others.Remove(s)
	if !others.Empty() {
		// Another socket's entry already lives in the block: read, merge
		// the incoming entry into S's slot, write back.
		sys.stats.CorruptedMerges++
		t1 = sys.dram.Read(t1, uint64(addr), dram.KindDE)
	}
	sys.dram.Write(t1, uint64(addr), dram.KindDE)
	if err := sys.mem.WriteSegment(addr, s, e); err != nil {
		panic("socket: " + err.Error())
	}
}

// GetDE implements core.Home (Fig. 16 steps 3-4).
func (h *homeAgent) GetDE(t sim.Cycle, s int, addr coher.Addr) (coher.Entry, sim.Cycle, bool) {
	sys := h.sys
	e, ok := sys.mem.ReadSegment(addr, s)
	if !ok {
		return coher.Entry{}, t, false
	}
	home := h.homeOf(addr)
	done := sys.dram.Read(t+h.inter(s, home), uint64(addr), dram.KindDE) + 1 + h.inter(home, s)
	return e, done, true
}

// PutDE implements core.Home (Fig. 16 step 6).
func (h *homeAgent) PutDE(t sim.Cycle, s int, addr coher.Addr, e coher.Entry) {
	sys := h.sys
	home := h.homeOf(addr)
	sys.dram.Write(t+h.inter(s, home), uint64(addr), dram.KindDE)
	if e.Live() {
		if err := sys.mem.WriteSegment(addr, s, e); err != nil {
			panic("socket: " + err.Error())
		}
		return
	}
	sys.mem.ClearSegment(addr, s)
}

// SocketEvict implements core.Home: socket s no longer holds addr.
func (h *homeAgent) SocketEvict(t sim.Cycle, s int, addr coher.Addr) bool {
	sys := h.sys
	home := h.homeOf(addr)
	t1 := t + h.inter(s, home)
	ent, t1 := sys.lookupSocketEntry(t1, addr)
	var next coher.SocketEntry
	switch ent.State {
	case coher.SockOwned:
		if ent.Owner != s {
			panic("socket: eviction notice from a non-owner socket")
		}
	case coher.SockShared:
		next = ent
		next.Sharers.Remove(s)
		if next.Sharers.Count() == 1 {
			// Last remaining socket becomes the owner at socket level.
			next = coher.SocketEntry{State: coher.SockOwned, Owner: next.Sharers.First()}
		} else if next.Sharers.Empty() {
			next = coher.SocketEntry{}
		}
	default:
		panic("socket: eviction notice for an untracked block")
	}
	sys.storeSocketEntry(t1, addr, next)
	if !next.Live() && sys.mem.Corrupted(addr) {
		sys.stats.LastCopyRestores++
		return true
	}
	return false
}

// peekSocketEntry reads the socket-level entry without charging timing,
// for metadata decisions and invariant checks.
func (sys *System) peekSocketEntry(addr coher.Addr) coher.SocketEntry {
	if set, way, ok := sys.dirCache.Lookup(uint64(addr)); ok {
		return coher.UnpackSocketEntry(*sys.dirCache.Payload(set, way))
	}
	if sys.P.Backing == MemoryBackup {
		return coher.UnpackSocketEntry(sys.backup[addr])
	}
	if e, ok := sys.mem.DirEvict(addr); ok {
		return e
	}
	return coher.SocketEntry{}
}

// AcquireExclusive implements core.Home: invalidate every other
// socket's copies before a core of socket s takes the block to M.
func (h *homeAgent) AcquireExclusive(t sim.Cycle, s int, addr coher.Addr) sim.Cycle {
	sys := h.sys
	home := h.homeOf(addr)
	ent := sys.peekSocketEntry(addr)
	holders := ent.Holders()
	if holders.Count() <= 1 && holders.Contains(s) && ent.State == coher.SockOwned {
		return t // already exclusive
	}
	t1 := t + h.inter(s, home)
	_, t1 = sys.lookupSocketEntry(t1, addr)
	holders.ForEach(func(g int) {
		if g != s {
			h.invalidateSocket(t1, g, addr)
		}
	})
	sys.storeSocketEntry(t1, addr, coher.SocketEntry{State: coher.SockOwned, Owner: s})
	return t1 + h.inter(home, s)
}

// SharedElsewhere implements core.Home.
func (h *homeAgent) SharedElsewhere(s int, addr coher.Addr) bool {
	holders := h.sys.peekSocketEntry(addr).Holders()
	holders.Remove(s)
	return !holders.Empty()
}

// Corrupted implements core.Home.
func (h *homeAgent) Corrupted(addr coher.Addr) bool { return h.sys.mem.Corrupted(addr) }

// Segment implements core.Home.
func (h *homeAgent) Segment(s int, addr coher.Addr) (coher.Entry, bool) {
	return h.sys.mem.ReadSegment(addr, s)
}
