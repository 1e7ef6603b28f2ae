// Package stats collects per-run metrics and provides the derived
// quantities the paper reports: weighted speedup for multiprogrammed
// workloads, parallel speedup for multithreaded ones, normalized
// interconnect traffic, normalized core-cache misses, and geometric
// means.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/stream"
)

// Run is the complete measurement of one simulation, single-socket or
// multi-socket: every counter is summed over sockets and cores, and
// the only per-core value kept is each core's cycle count.
type Run struct {
	Label  string
	Cycles sim.Cycle // parallel completion time
	// CPU sums every core's counters (its Cycles is total core-cycles);
	// CoreCycles holds each core's own completion time in socket-major
	// order, for WeightedSpeedup.
	CPU        cpu.Stats
	CoreCycles []sim.Cycle
	// IntervalIPC folds every core's per-interval IPC samples in
	// socket-major core order (empty unless cpu.Params.StatInterval is
	// set).
	IntervalIPC stream.Stream
	Engine      core.Stats
	Traffic     noc.Traffic
	DRAM        dram.Stats
	// Socket holds the inter-socket counters (zero for one socket).
	Socket socket.Stats

	// LLC line population at end of run, for occupancy reporting.
	LLCData, LLCSpilled, LLCFused int
	// DirCap is one socket's directory capacity (< 0 means unbounded),
	// DirPeak its high-water mark, and DirPeakOverflow the peak entry
	// population that would not fit the 1x organization (the Fig. 5
	// projection); the peaks are summed over sockets.
	DirCap, DirPeak, DirPeakOverflow int

	// Home-memory pressure (multi-socket only): peak live per-block
	// metadata entries and the number of segment writebacks that had to
	// coarsen to a superset encoding (compressed organizations only).
	MetaHighWater int
	CoarseWrites  uint64
}

// Collect snapshots a finished single-socket system.
func Collect(label string, sys *core.System, cycles sim.Cycle) Run {
	r := Run{Label: label, Cycles: cycles, DRAM: sys.Home.DRAM().Stats()}
	r.addSocket(sys.Engine, sys.Cores)
	return r
}

// CollectSockets snapshots a finished multi-socket system.
func CollectSockets(label string, sys *socket.System, cycles sim.Cycle) Run {
	r := Run{
		Label:         label,
		Cycles:        cycles,
		DRAM:          sys.DRAM().Stats(),
		Socket:        sys.Stats(),
		MetaHighWater: sys.Mem().MetaHighWater(),
		CoarseWrites:  sys.Mem().CoarseSegmentWrites(),
	}
	for _, sock := range sys.Sockets {
		r.addSocket(sock.Engine, sock.Cores)
	}
	return r
}

// addSocket is the fold both collectors share: it adds one socket's
// engine, interconnect, occupancy and cores to r.
func (r *Run) addSocket(eng *core.Engine, cores []*cpu.Core) {
	r.Engine.Add(eng.Stats())
	r.Traffic.Add(eng.Mesh().Traffic())
	d, sp, fu := eng.LLC().CountKinds()
	r.LLCData += d
	r.LLCSpilled += sp
	r.LLCFused += fu
	dir := eng.Directory()
	_, r.DirCap = dir.Occupancy()
	if pk, ok := dir.(interface{ Peak() int }); ok {
		r.DirPeak += pk.Peak()
	}
	if po, ok := dir.(interface{ PeakOverflow() int }); ok {
		r.DirPeakOverflow += po.PeakOverflow()
	}
	for _, c := range cores {
		s := c.Stats()
		r.CPU.Add(&s)
		r.CoreCycles = append(r.CoreCycles, s.Cycles)
		r.IntervalIPC.Merge(c.IntervalIPC().Flatten())
	}
}

// CoreCacheMisses is the summed L2 misses — the paper's "core cache
// misses".
func (r Run) CoreCacheMisses() uint64 { return r.CPU.L2Misses }

// MPKI is core cache misses per kilo-instruction.
func (r Run) MPKI() float64 {
	if r.CPU.Retired == 0 {
		return 0
	}
	return 1000 * float64(r.CPU.L2Misses) / float64(r.CPU.Retired)
}

// TrafficPerMiss is interconnect bytes per core-cache miss, the
// normalized-traffic stand-in when no baseline run is at hand.
func (r Run) TrafficPerMiss() float64 {
	if r.CPU.L2Misses == 0 {
		return 0
	}
	return float64(r.Traffic.TotalBytes()) / float64(r.CPU.L2Misses)
}

// RecoveryEvents sums the ZeroDEV recovery-path activations: corrupted
// home fetches, GET_DE flows, last-sharer retrievals at the LLC, home
// last-copy restores, and imprecise-segment reconciliations.
func (r Run) RecoveryEvents() uint64 {
	return r.Engine.CorruptedFetches + r.Engine.GetDEFlows +
		r.Engine.LastSharerRetrievals + r.Socket.LastCopyRestores +
		r.Engine.ImpreciseReconciles
}

// Speedup is the parallel-completion-time speedup of x over base,
// used for multithreaded workloads.
func Speedup(base, x Run) float64 {
	if x.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(x.Cycles)
}

// WeightedSpeedup is the multiprogrammed metric: the mean over cores of
// per-core cycle ratios (each program retires a fixed instruction
// count, so cycle ratio equals IPC ratio).
func WeightedSpeedup(base, x Run) float64 {
	if len(base.CoreCycles) != len(x.CoreCycles) || len(x.CoreCycles) == 0 {
		return 0
	}
	var s float64
	for i, c := range x.CoreCycles {
		if c == 0 {
			return 0
		}
		s += float64(base.CoreCycles[i]) / float64(c)
	}
	return s / float64(len(x.CoreCycles))
}

// NormTraffic is x's interconnect bytes relative to base.
func NormTraffic(base, x Run) float64 {
	b := base.Traffic.TotalBytes()
	if b == 0 {
		return 0
	}
	return float64(x.Traffic.TotalBytes()) / float64(b)
}

// NormMisses is x's core-cache misses relative to base.
func NormMisses(base, x Run) float64 {
	b := base.CoreCacheMisses()
	if b == 0 {
		return 0
	}
	return float64(x.CoreCacheMisses()) / float64(b)
}

// GeoMean returns the geometric mean of vals (0 for empty input;
// non-positive values are skipped).
func GeoMean(vals []float64) float64 {
	var s float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Min returns the minimum (0 for empty input).
func Min(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders experiment output as an aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row with a label and formatted float cells.
func (t *Table) AddF(label string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.3f", v))
	}
	t.Rows = append(t.Rows, cells)
}

// Fprint writes the table.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Headers) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Headers, "\t"))
	}
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}
