package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// Protocol is the pluggable coherence-backend seam: the
// directory/LLC-housing strategy factored out of the request flows, in
// the coh_policy style — the policy object is distinct from the cache
// structures (directory, LLC) it programs. Read/Write/Upgrade/Evict
// stay backend-independent; everything that differs between ZeroDEV and
// its competitors funnels through these five hooks. Implementations
// hold the engine and are constructed by the backend.ID carried in
// Params; they are not safe for concurrent use.
type Protocol interface {
	// StoreDE writes the live entry for addr wherever this backend
	// houses it, creating housing when it lives nowhere on the socket
	// (the storeDEView contract: v is the caller's current view of addr
	// when haveView, Protect(addr) held; after/known describe addr's
	// post-housing view).
	StoreDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (after llc.View, known bool)

	// EvictNoDE handles a core eviction notice for a block with no
	// directory entry on the socket. Only backends that can lose the
	// entry to home memory (WB_DE) have a real flow here; the rest
	// treat it as a protocol bug.
	EvictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState)

	// LastHolderGone runs when the socket's last private copy leaves,
	// immediately before the entry is freed (the FuseAll last-sharer
	// low-bit retrieval hooks here).
	LastHolderGone(t sim.Cycle, addr coher.Addr, state coher.PrivState, v llc.View)

	// Admit is the allocation-admission hook, consulted at request
	// entry when no entry exists on the socket (an allocation is
	// coming). It returns extra latency charged to the request — the
	// phase-priority NACK/retry ladder; zero for every other backend.
	// Engines only consult it when the backend registers interest, so
	// the common backends pay nothing on the hot path.
	Admit(t sim.Cycle, addr coher.Addr) sim.Cycle

	// CheckHoused validates one LLC-housed entry against the backend's
	// housing invariants (FPSS form rules, DLS fused-only housing).
	// Backends that never house entries in the LLC report any housed
	// entry as a violation.
	CheckHoused(addr coher.Addr, fused bool, ent coher.Entry) error
}

// newProtocol builds the protocol object for the engine's backend.
// Structural requirements (directory flavor, LLC mode) are validated
// here so a mis-assembled spec fails at construction, not mid-run.
func newProtocol(e *Engine, id backend.ID) Protocol {
	switch id {
	case backend.ZeroDEV:
		return &zerodevProtocol{e: e}
	case backend.SparseMESI:
		return &sparseMESIProtocol{e: e}
	case backend.DLS:
		if e.llc.Mode() != llc.Inclusive {
			panic("core: the DLS backend requires an inclusive LLC (in-tag tracking forces inclusion)")
		}
		if _, cap := e.dir.Occupancy(); cap != 0 {
			panic("core: the DLS backend is directoryless; assemble it with directory.NoDir")
		}
		return &dlsProtocol{e: e}
	case backend.PhasePriority:
		cd, ok := e.dir.(ConflictDirectory)
		if !ok {
			panic("core: the phase-priority backend needs a directory with SetFull/EvictVictim (directory.Traditional)")
		}
		return &phasePriorityProtocol{e: e, dir: cd}
	}
	panic(fmt.Sprintf("core: no protocol implementation for backend %q", id))
}

// --- zerodev ----------------------------------------------------------------

// zerodevProtocol is the paper's proposal: entries live in the
// replacement-disabled sparse directory when it has room and are housed
// in the LLC otherwise (spilled or fused per the DEPolicy), leaving the
// socket only via the WB_DE flow into home memory.
type zerodevProtocol struct {
	e *Engine
}

func (z *zerodevProtocol) StoreDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	e := z.e
	if _, ok := e.dir.Lookup(addr); ok {
		// In-place update. Traditional directories never evict here, but
		// SecDir (private-partition conflicts while reconciling holders)
		// and MgD (grain conversions) can. Victims are other addresses, so
		// v stays current (addr's lines are protected).
		victims, housed := e.dir.Store(addr, ent)
		if !housed {
			panic("core: in-place directory update refused")
		}
		for _, w := range victims {
			if w.Entry.Live() {
				e.stats.DEDisplacedToLLC++
				e.houseInLLC(t, w.Addr, w.Entry)
			}
		}
		return v, haveView
	}
	if !haveView {
		v = e.llc.Probe(addr)
	}
	if v.HasDE() {
		return e.updateLLCDE(t, addr, ent, v)
	}
	// New housing: the sparse directory first.
	victims, housed := e.dir.Store(addr, ent)
	if housed {
		// §III-C4 ablation: with a replacement-enabled sparse
		// directory under ZeroDEV, a displaced entry moves to the LLC
		// instead of generating DEVs — but it has now disturbed both
		// structures, which is why the paper prefers the
		// replacement-disabled design.
		for _, w := range victims {
			if w.Entry.Live() {
				e.stats.DEDisplacedToLLC++
				e.houseInLLC(t, w.Addr, w.Entry)
			}
		}
		return v, true
	}
	return e.houseInLLCView(t, addr, ent, v)
}

// EvictNoDE: the entry lives in the corrupted home block. Fig. 16.
func (z *zerodevProtocol) EvictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	e := z.e
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
	freed := !de.Live() || de.RemoveHolder(c)
	if !freed {
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

func (z *zerodevProtocol) LastHolderGone(t sim.Cycle, addr coher.Addr, state coher.PrivState, v llc.View) {
	e := z.e
	if v.Fused && e.p.Policy == FuseAll && state == coher.PrivShared {
		// FuseAll: the home retrieves the low 4+N bits from the last
		// sharer's eviction buffer to reconstruct the fused block
		// (§III-C3).
		e.stats.LastSharerRetrievals++
		e.record(coher.MsgLastSharerAck)
	}
}

func (z *zerodevProtocol) Admit(sim.Cycle, coher.Addr) sim.Cycle { return 0 }

func (z *zerodevProtocol) CheckHoused(addr coher.Addr, fused bool, ent coher.Entry) error {
	e := z.e
	if e.p.Policy != FPSS {
		return nil
	}
	if fused && ent.State != coher.DirOwned {
		return fmt.Errorf("FPSS fused entry for %#x in state %v", uint64(addr), ent.State)
	}
	if !fused && ent.State == coher.DirOwned {
		if v := e.llc.Probe(addr); v.HasData() && !v.Fused && e.llc.Mode() != llc.EPD {
			return fmt.Errorf("FPSS spilled M/E entry for %#x with co-resident block", uint64(addr))
		}
	}
	return nil
}

// --- sparsemesi -------------------------------------------------------------

// sparseMESIProtocol is the classic bounded sparse-directory baseline:
// every entry lives in the NRU directory, and a conflict evicts a live
// entry whose tracked copies become DEVs.
type sparseMESIProtocol struct {
	e *Engine
}

func (s *sparseMESIProtocol) StoreDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	e := s.e
	if _, ok := e.dir.Lookup(addr); ok {
		victims, housed := e.dir.Store(addr, ent)
		if !housed {
			panic("core: in-place directory update refused")
		}
		e.processDEVs(t, victims)
		return v, haveView
	}
	victims, housed := e.dir.Store(addr, ent)
	if !housed {
		panic("core: baseline directory refused an allocation")
	}
	e.processDEVs(t, victims)
	return v, haveView
}

func (s *sparseMESIProtocol) EvictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	panic(fmt.Sprintf("core: baseline lost the directory entry for %#x", uint64(addr)))
}

func (s *sparseMESIProtocol) LastHolderGone(sim.Cycle, coher.Addr, coher.PrivState, llc.View) {}

func (s *sparseMESIProtocol) Admit(sim.Cycle, coher.Addr) sim.Cycle { return 0 }

func (s *sparseMESIProtocol) CheckHoused(addr coher.Addr, fused bool, ent coher.Entry) error {
	return fmt.Errorf("sparse-MESI housed a directory entry in the LLC for %#x", uint64(addr))
}
