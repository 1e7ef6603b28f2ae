package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/directory"
	"repro/internal/llc"
	"repro/internal/sim"
)

// ConflictDirectory is the directory extension the phase-priority
// backend programs against: it must expose allocation-conflict
// detection (SetFull) and prioritized victim eviction (EvictVictim) on
// top of the base Directory contract. directory.Traditional implements
// it.
type ConflictDirectory interface {
	directory.Directory
	// SetFull reports whether allocating addr would conflict: addr is
	// absent and its set has no free way.
	SetFull(addr coher.Addr) bool
	// EvictVictim forcibly evicts the replacement victim of addr's set
	// and returns it; ok is false when the set has a free way or addr is
	// already present (no eviction needed).
	EvictVictim(addr coher.Addr) (directory.Victim, bool)
}

// ppRetryBudget is the modeled NACK/retry ladder depth: the number of
// retries a conflicting allocation issues (each costing one queue
// round, Params.QueueCycles) before the phase boundary escalates its
// priority and the directory victimizes a live entry for it.
const ppRetryBudget = 2

// phasePriorityProtocol is the phase-priority directory backend (arXiv
// 1305.3038): a bounded replacement-disabled directory whose
// allocation conflicts are NACKed and retried under a bounded budget.
// When the budget is spent, the phase boundary raises the requester's
// priority and the directory evicts the replacement victim — so DEVs
// still occur, but only at escalation, after the retry latency has
// been charged to the conflicting request rather than silently to the
// victim.
type phasePriorityProtocol struct {
	e   *Engine
	dir ConflictDirectory
	// scratch backs the single-victim slice handed to processDEVs on
	// escalation, keeping the conflict path allocation-free.
	scratch [1]directory.Victim
}

func (p *phasePriorityProtocol) StoreDE(t sim.Cycle, addr coher.Addr, ent coher.Entry, v llc.View, haveView bool) (llc.View, bool) {
	e := p.e
	victims, housed := p.dir.Store(addr, ent)
	if housed {
		e.processDEVs(t, victims)
		return v, haveView
	}
	// Retry budget exhausted (charged by Admit at request entry): the
	// phase boundary escalates this request's priority and the
	// directory victimizes a live entry — the only point where this
	// backend produces DEVs.
	e.stats.PhaseEscalations++
	w, ok := p.dir.EvictVictim(addr)
	if !ok {
		panic(fmt.Sprintf("core: phase-priority escalation for %#x found no victim", uint64(addr)))
	}
	p.scratch[0] = w
	e.processDEVs(t, p.scratch[:1])
	if _, housed := p.dir.Store(addr, ent); !housed {
		panic(fmt.Sprintf("core: phase-priority directory refused %#x after escalation", uint64(addr)))
	}
	return v, haveView
}

func (p *phasePriorityProtocol) EvictNoDE(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	panic(fmt.Sprintf("core: phase-priority lost the directory entry for %#x", uint64(addr)))
}

func (p *phasePriorityProtocol) LastHolderGone(sim.Cycle, coher.Addr, coher.PrivState, llc.View) {}

// Admit charges the NACK/retry ladder when the upcoming allocation
// conflicts. The engine consults it only when no entry exists on the
// socket, so hits and in-place updates pay nothing.
func (p *phasePriorityProtocol) Admit(t sim.Cycle, addr coher.Addr) sim.Cycle {
	if !p.dir.SetFull(addr) {
		return 0
	}
	e := p.e
	e.stats.DirNACKs++
	e.stats.DirRetries += ppRetryBudget
	return ppRetryBudget * e.p.QueueCycles
}

func (p *phasePriorityProtocol) CheckHoused(addr coher.Addr, fused bool, ent coher.Entry) error {
	return fmt.Errorf("phase-priority housed a directory entry in the LLC for %#x", uint64(addr))
}
