// Package noc models the on-chip 2D mesh interconnect: tile placement,
// hop latency, and per-message-type traffic accounting in bytes, which
// is the paper's "total bytes communicated" metric.
package noc

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/sim"
)

// Params describe the mesh timing (Table I: 1-cycle routing delay,
// 1-cycle link latency).
type Params struct {
	RoutingCycles sim.Cycle
	LinkCycles    sim.Cycle
}

// DefaultParams returns the Table I mesh timing.
func DefaultParams() Params {
	return Params{RoutingCycles: 1, LinkCycles: 1}
}

type pos struct{ x, y int }

// Mesh is a 2D mesh connecting core tiles and LLC-bank tiles. Cores and
// banks are interleaved across the grid so bank distance is roughly
// uniform, as in a tiled CMP floorplan.
type Mesh struct {
	p       Params
	w, h    int
	corePos []pos
	bankPos []pos
	traffic Traffic
}

// New builds a mesh for the given core and bank counts.
func New(p Params, cores, banks int) (*Mesh, error) {
	if cores <= 0 || banks <= 0 {
		return nil, fmt.Errorf("noc: non-positive tile counts")
	}
	tiles := cores + banks
	w := 1
	for w*w < tiles {
		w++
	}
	h := (tiles + w - 1) / w
	m := &Mesh{p: p, w: w, h: h}
	// Interleave cores and banks across the scan order so banks sit among
	// cores rather than clustered in a corner.
	order := make([]pos, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			order = append(order, pos{x, y})
		}
	}
	ci, bi := 0, 0
	for i, p := range order {
		if ci < cores && (i%2 == 0 || bi >= banks) {
			m.corePos = append(m.corePos, p)
			ci++
		} else if bi < banks {
			m.bankPos = append(m.bankPos, p)
			bi++
		}
	}
	if ci < cores || bi < banks {
		return nil, fmt.Errorf("noc: failed to place %d cores and %d banks on %dx%d mesh", cores, banks, w, h)
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(p Params, cores, banks int) *Mesh {
	m, err := New(p, cores, banks)
	if err != nil {
		panic(err)
	}
	return m
}

func manhattan(a, b pos) int {
	dx := a.x - b.x
	if dx < 0 {
		dx = -dx
	}
	dy := a.y - b.y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func (m *Mesh) hopLatency(hops int) sim.Cycle {
	// Each hop pays a router traversal and a link traversal; the final
	// router/ejection is folded into the per-hop cost. A zero-hop message
	// (core co-located with its bank) still pays one router traversal.
	if hops == 0 {
		return m.p.RoutingCycles
	}
	return sim.Cycle(hops) * (m.p.RoutingCycles + m.p.LinkCycles)
}

// CoreToBank returns the message latency from a core tile to a bank tile.
func (m *Mesh) CoreToBank(c coher.CoreID, bank int) sim.Cycle {
	return m.hopLatency(manhattan(m.corePos[c], m.bankPos[bank]))
}

// BankToCore returns the message latency from a bank tile to a core tile.
func (m *Mesh) BankToCore(bank int, c coher.CoreID) sim.Cycle {
	return m.CoreToBank(c, bank)
}

// CoreToCore returns the message latency between two core tiles (the
// three-hop forwarding path's final leg).
func (m *Mesh) CoreToCore(a, b coher.CoreID) sim.Cycle {
	return m.hopLatency(manhattan(m.corePos[a], m.corePos[b]))
}

// Traffic accumulates interconnect bytes and message counts by type.
type Traffic struct {
	Bytes    [coher.NumMsgTypes]uint64
	Messages [coher.NumMsgTypes]uint64
}

// TotalBytes sums bytes across all message types.
func (t *Traffic) TotalBytes() uint64 {
	var s uint64
	for _, b := range t.Bytes {
		s += b
	}
	return s
}

// TotalMessages sums message counts across all types.
func (t *Traffic) TotalMessages() uint64 {
	var s uint64
	for _, b := range t.Messages {
		s += b
	}
	return s
}

// Add merges o into t.
func (t *Traffic) Add(o *Traffic) {
	for i := range t.Bytes {
		t.Bytes[i] += o.Bytes[i]
		t.Messages[i] += o.Messages[i]
	}
}

// Record charges one message of type mt in a system with the given core
// count.
func (m *Mesh) Record(mt coher.MsgType, cores int) {
	m.traffic.Bytes[mt] += uint64(mt.Bytes(cores))
	m.traffic.Messages[mt]++
}

// Traffic returns the accumulated traffic counters.
func (m *Mesh) Traffic() *Traffic { return &m.traffic }
