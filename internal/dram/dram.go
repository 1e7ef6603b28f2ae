// Package dram models main-memory timing in the spirit of DRAMSim2 as
// used by the paper: per-channel, per-rank, per-bank state with an
// open-page row buffer, expressed in CPU cycles. It is not a full DDR
// command scheduler; it captures the three effects the evaluation
// depends on: row-hit vs row-miss latency, bank busy time (write
// pressure from WB_DE), and total DRAM read/write traffic.
package dram

import (
	"fmt"

	"repro/internal/sim"
)

// Params are the timing parameters of a memory system, in CPU cycles.
type Params struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBufBytes  int
	TRCD         sim.Cycle // activate to column command
	TCAS         sim.Cycle // column command to data
	TRP          sim.Cycle // precharge
	BurstCycles  sim.Cycle // data transfer occupancy per access
}

// DDR3_2133 returns the paper's Table I memory system (two single-channel
// DDR3-2133 controllers, two ranks, eight banks, 1 KB row buffer,
// 14-14-14-35) converted to 4 GHz CPU cycles (bus at 1066 MHz, ratio
// ~3.75). channels overrides the channel count for the 128-core
// configuration, which uses eight controllers.
func DDR3_2133(channels int) Params {
	return Params{
		Channels:     channels,
		RanksPerChan: 2,
		BanksPerRank: 8,
		RowBufBytes:  1024,
		TRCD:         52, // 14 bus cycles
		TCAS:         52,
		TRP:          52,
		BurstCycles:  15, // BL=8 on a 64-bit channel
	}
}

// Stats aggregates DRAM activity for a run.
type Stats struct {
	Reads   uint64
	Writes  uint64
	RowHits uint64
	RowMiss uint64
	// DEWrites counts writes caused by directory-entry writebacks
	// (WB_DE), reported against the paper's "<0.5% of DRAM writes arise
	// from directory entry eviction" claim.
	DEWrites uint64
	// DEReads counts reads of corrupted blocks for DE extraction.
	DEReads uint64
}

type bank struct {
	openRow   int64
	busyUntil sim.Cycle
}

// DRAM is a multi-channel memory system. It is not safe for concurrent
// use; the simulator is single-threaded by design.
type DRAM struct {
	p     Params
	banks []bank // channel-major
	stats Stats
}

// New constructs a DRAM system; all row buffers start closed.
func New(p Params) (*DRAM, error) {
	if p.Channels <= 0 || p.RanksPerChan <= 0 || p.BanksPerRank <= 0 {
		return nil, fmt.Errorf("dram: non-positive geometry")
	}
	n := p.Channels * p.RanksPerChan * p.BanksPerRank
	banks := make([]bank, n)
	for i := range banks {
		banks[i].openRow = -1
	}
	return &DRAM{p: p, banks: banks}, nil
}

// MustNew is New that panics on error, for validated presets.
func MustNew(p Params) *DRAM {
	d, err := New(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns a snapshot of accumulated counters.
func (d *DRAM) Stats() Stats { return d.stats }

// bankOf maps a block address to its bank, interleaving consecutive
// blocks across channels first (maximizing channel parallelism), then
// banks, with the row formed from the remaining bits.
func (d *DRAM) bankOf(blockAddr uint64) (idx int, row int64) {
	ch := int(blockAddr % uint64(d.p.Channels))
	rest := blockAddr / uint64(d.p.Channels)
	nb := d.p.RanksPerChan * d.p.BanksPerRank
	b := int(rest % uint64(nb))
	blocksPerRow := uint64(d.p.RowBufBytes / 64)
	row = int64(rest / uint64(nb) / blocksPerRow)
	return ch*nb + b, row
}

// AccessKind distinguishes demand traffic from directory-entry traffic
// for the paper's instrumentation claims.
type AccessKind uint8

const (
	// KindData is ordinary demand or writeback traffic.
	KindData AccessKind = iota
	// KindDE is directory-entry traffic: WB_DE writes and corrupted-block
	// reads for DE extraction.
	KindDE
)

// Read performs a block read issued at time t and returns its completion
// time.
func (d *DRAM) Read(t sim.Cycle, blockAddr uint64, kind AccessKind) sim.Cycle {
	d.stats.Reads++
	if kind == KindDE {
		d.stats.DEReads++
	}
	return d.access(t, blockAddr)
}

// Write performs a block write issued at time t and returns the time the
// bank is committed; the caller normally does not wait on writes, but
// the bank occupancy delays later reads to the same bank.
func (d *DRAM) Write(t sim.Cycle, blockAddr uint64, kind AccessKind) sim.Cycle {
	d.stats.Writes++
	if kind == KindDE {
		d.stats.DEWrites++
	}
	return d.access(t, blockAddr)
}

func (d *DRAM) access(t sim.Cycle, blockAddr uint64) sim.Cycle {
	bi, row := d.bankOf(blockAddr)
	b := &d.banks[bi]
	start := t
	if b.busyUntil > start {
		start = b.busyUntil
	}
	var lat sim.Cycle
	if b.openRow == row {
		d.stats.RowHits++
		lat = d.p.TCAS
	} else {
		d.stats.RowMiss++
		if b.openRow >= 0 {
			lat = d.p.TRP + d.p.TRCD + d.p.TCAS
		} else {
			lat = d.p.TRCD + d.p.TCAS
		}
		b.openRow = row
	}
	done := start + lat + d.p.BurstCycles
	b.busyUntil = start + lat + d.p.BurstCycles
	return done
}
