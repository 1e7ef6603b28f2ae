package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/llc"
	"repro/internal/sim"
)

// dlsProtocol is the directoryless-shared-LLC backend (arXiv
// 1206.4753): there is no directory structure at all — tracking state
// rides in the LLC tags of the block's own line, modeled as a fused
// line whose data part stays fully usable (the entry lives tag-side,
// not in the data bits). The consequences fall out of the existing
// machinery: tracking a block forces it LLC-resident (a line fill on
// directory-entry creation when the block is absent), the LLC is
// necessarily inclusive, and evicting a tracked line is an inclusion
// eviction — forced invalidations, never a WB_DE. Zero DEVs by
// construction; the costs are the residency tax and inclusion victims.
type dlsProtocol struct {
	e *Engine
}

func (d *dlsProtocol) Backend() backend.ID { return backend.DLS }

func (d *dlsProtocol) StoreDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	e := d.e
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

func (d *dlsProtocol) EvictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	// Inclusion guarantees every privately cached block has a tracked
	// LLC line; an eviction notice without one is a protocol bug.
	panic(fmt.Sprintf("core: DLS lost the in-tag tracking for %#x", uint64(addr)))
}

func (d *dlsProtocol) LastHolderGone(sim.Cycle, coher.Addr, coher.PrivState, llc.View) {
	// Unfusing a DLS line needs no low-bit retrieval: the data part was
	// never displaced by the (tag-side) entry.
}

func (d *dlsProtocol) Admit(sim.Cycle, coher.Addr) sim.Cycle { return 0 }

func (d *dlsProtocol) CheckHoused(addr coher.Addr, fused bool, ent coher.Entry) error {
	if !fused {
		return fmt.Errorf("DLS spilled a directory entry for %#x (tracking must ride the block's own line)", uint64(addr))
	}
	return nil
}
