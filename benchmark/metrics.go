package main

import (
	"sort"
	"strings"
)

type metricDef struct{ name, unit, better string }

// endToEnd are measured with tracing off, one value per timed sample
// (the sim_* ones repeat exactly). BENCHMARK.json declares the same set.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_bytes_per_access", "B", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"sim_cycles", "cycles", "lower"},
	{"sim_read_miss_cycles", "cycles", "lower"},
}

// layers are the step-path packages the traced run attributes host time
// to. core includes llc, noc and coher, which have no seam of their own.
var layers = []string{"sim", "workload", "cpu", "core", "directory", "home"}

// perLayer are host time from the traced run, then simulated work from
// the untraced run's public counters.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, l := range layers {
		m = append(m,
			metricDef{l + ".self_share", "ratio", "lower"},
			metricDef{l + ".ns_per_call", "ns", "lower"},
			metricDef{l + ".calls_per_kaccess", "1/kaccess", "lower"})
	}
	return append(m,
		metricDef{"cpu.port_share", "ratio", "lower"},
		metricDef{"trace.span_ns", "ns", "lower"},
		metricDef{"trace.overhead_x", "x", "lower"},
		metricDef{"cpu.l1d_miss_ratio", "ratio", "lower"},
		metricDef{"cpu.l2_misses_per_kaccess", "1/kaccess", "lower"},
		metricDef{"cpu.upgrades_per_kaccess", "1/kaccess", "lower"},
		metricDef{"cpu.invals_received_per_kaccess", "1/kaccess", "lower"},
		metricDef{"core.llc_hit_ratio", "ratio", "higher"},
		metricDef{"core.forwards_per_kaccess", "1/kaccess", "lower"},
		metricDef{"core.demand_invals_per_kaccess", "1/kaccess", "lower"},
		metricDef{"core.de_spills_per_kaccess", "1/kaccess", "lower"},
		metricDef{"core.de_fuses_per_kaccess", "1/kaccess", "lower"},
		metricDef{"core.wb_de", "count", "lower"},
		metricDef{"core.get_de", "count", "lower"},
		metricDef{"core.devs_per_kinstr", "1/kinstr", "lower"},
		metricDef{"core.read_llc_hit_cycles", "cycles", "lower"},
		metricDef{"core.read_forward_cycles", "cycles", "lower"},
		metricDef{"core.read_memory_cycles", "cycles", "lower"},
		metricDef{"directory.live_peak", "count", "lower"},
		metricDef{"noc.bytes_per_miss", "B", "lower"},
		metricDef{"noc.messages_per_miss", "count", "lower"},
		metricDef{"dram.accesses_per_kaccess", "1/kaccess", "lower"},
		metricDef{"dram.row_hit_ratio", "ratio", "higher"},
		metricDef{"socket.misses_per_kaccess", "1/kaccess", "lower"},
		metricDef{"socket.forwards_per_kaccess", "1/kaccess", "lower"},
		metricDef{"socket.dircache_misses_per_kaccess", "1/kaccess", "lower"},
		metricDef{"mem.meta_high_water", "count", "lower"},
		metricDef{"mem.coarse_writes", "count", "lower"},
	)
}()

// ratio is a/b, or 0 when nothing was counted.
func ratio[T uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simEndToEnd are the simulated end-to-end values of one run.
func simEndToEnd(k *counters) map[string]float64 {
	e := &k.eng
	return map[string]float64{
		"sim_cycles": float64(k.cycles),
		"sim_read_miss_cycles": ratio(e.LatReadLLCHit+e.LatReadForward+e.LatReadMemory,
			e.NReadLLCHit+e.NReadForward+e.NReadMemory),
	}
}

// simLayers derives the simulated per-layer metrics from one run's
// counters; they repeat exactly for a given seed.
func simLayers(k *counters) map[string]float64 {
	acc := k.accesses()
	perK := func(v uint64) float64 { return 1000 * ratio(v, acc) }
	e := &k.eng
	return map[string]float64{
		"cpu.l1d_miss_ratio":                 ratio(k.cpu.L1DMisses, k.cpu.Loads+k.cpu.Stores),
		"cpu.l2_misses_per_kaccess":          perK(k.cpu.L2Misses),
		"cpu.upgrades_per_kaccess":           perK(k.cpu.Upgrades),
		"cpu.invals_received_per_kaccess":    perK(k.cpu.InvalidationsReceived),
		"core.llc_hit_ratio":                 ratio(e.LLCDataHits, e.LLCDataHits+e.LLCMisses),
		"core.forwards_per_kaccess":          perK(e.Forwards3Hop),
		"core.demand_invals_per_kaccess":     perK(e.DemandInvals),
		"core.de_spills_per_kaccess":         perK(e.DESpills),
		"core.de_fuses_per_kaccess":          perK(e.DEFuses),
		"core.wb_de":                         float64(e.DEEvictionsToMemory),
		"core.get_de":                        float64(e.GetDEFlows),
		"core.devs_per_kinstr":               1000 * ratio(e.DEVs, k.cpu.Retired),
		"core.read_llc_hit_cycles":           ratio(e.LatReadLLCHit, e.NReadLLCHit),
		"core.read_forward_cycles":           ratio(e.LatReadForward, e.NReadForward),
		"core.read_memory_cycles":            ratio(e.LatReadMemory, e.NReadMemory),
		"directory.live_peak":                float64(k.dirPeak),
		"noc.bytes_per_miss":                 ratio(k.traffic.TotalBytes(), k.cpu.L2Misses),
		"noc.messages_per_miss":              ratio(k.traffic.TotalMessages(), k.cpu.L2Misses),
		"dram.accesses_per_kaccess":          perK(k.dram.Reads + k.dram.Writes),
		"dram.row_hit_ratio":                 ratio(k.dram.RowHits, k.dram.RowHits+k.dram.RowMiss),
		"socket.misses_per_kaccess":          perK(k.socket.SocketMisses),
		"socket.forwards_per_kaccess":        perK(k.socket.SocketForwards),
		"socket.dircache_misses_per_kaccess": perK(k.socket.DirCacheMisses),
		"mem.meta_high_water":                float64(k.metaHW),
		"mem.coarse_writes":                  float64(k.coarse),
	}
}

// hostLayers attributes the traced run's host time to layers and
// returns it with the corrected run total (ns).
//
// The tracing cost is measured in the run. A span's in-span cost is the
// probe's mean duration. Its full cost follows from how much longer a
// sampled step takes than a plain one, per timed call, less the
// counting cost (timed at start-up) the plain one pays instead. Steps
// are sampled at random, so both kinds do the same work on average, and
// interleaved, so host noise hits both alike.
//
// sim's share is the Drive span's self time over every step. The other
// layers' shares are their part of the sampled steps' time, scaled to
// the time of all steps. sim's calls are scheduler steps: it is entered
// once but works once per step.
func hostLayers(t *tracer, countCost float64, accesses uint64) (map[string]float64, float64) {
	plain, sampledSteps, probe := t.agg[spanStep], t.agg[spanStepSampled], t.agg[spanProbe]
	var untimed, timedCalls uint64
	for id := spanProbe; id < numSpans; id++ {
		untimed += t.calls[id] - t.agg[id].count
		timedCalls += t.agg[id].count
	}
	counting := float64(untimed) * countCost
	in := ratio(float64(probe.total), float64(probe.count))
	extra := ratio(float64(sampledSteps.total), float64(sampledSteps.count)) -
		ratio(float64(plain.total)-counting, float64(plain.count))
	full := ratio(extra, ratio(float64(timedCalls), float64(sampledSteps.count)))

	drive := t.corrected(spanDrive, in, full)
	plainNs := t.corrected(spanStep, in, full) - counting
	var sampled float64
	self := map[string]float64{}
	timed := map[string]uint64{}
	calls := map[string]uint64{"cpu": t.calls[spanStep]}
	for id := spanStepSampled; id < numSpans; id++ {
		c := t.corrected(id, in, full)
		l, _, _ := strings.Cut(spanNames[id], ".")
		self[l] += c
		timed[l] += t.agg[id].count
		calls[l] += t.calls[id]
		sampled += c
	}
	total := drive + plainNs + sampled
	scale := ratio(plainNs+sampled, sampled)

	out := map[string]float64{
		"sim.self_share":        ratio(drive, total),
		"sim.ns_per_call":       ratio(drive, float64(t.calls[spanStep])),
		"sim.calls_per_kaccess": 1000 * ratio(t.calls[spanStep], accesses),
	}
	for _, l := range layers[1:] {
		out[l+".self_share"] = ratio(self[l]*scale, total)
		out[l+".ns_per_call"] = ratio(self[l], float64(timed[l]))
		out[l+".calls_per_kaccess"] = 1000 * ratio(calls[l], accesses)
	}
	port := t.corrected(spanHasBlock, in, full) + t.corrected(spanInvalidate, in, full) +
		t.corrected(spanDowngrade, in, full)
	out["cpu.port_share"] = ratio(port*scale, total)
	out["trace.span_ns"] = full
	return out, total
}

// median is 0 for no values: a run whose every sample failed still
// prints a (wrong, flagged) result rather than an unencodable NaN.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are Python's statistics.quantiles(v, n=4) (the exclusive
// method), so the spreads printed here are the ones a reader computes
// from the raw values; fewer than two values give the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
