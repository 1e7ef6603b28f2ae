// Command benchmark measures what one simulated cell costs the host and
// the simulated chip. For each workload it builds the cell through the
// same constructors the harness uses, times the harness's serial path
// (System.RunCtx) with tracing off over interleaved samples, checks
// every run's output, and optionally makes traced runs that attribute
// host time to each step-path layer. The last line of standard output
// is a JSON result; README.md describes the workloads, metrics and
// bounds.
//
//	go run . [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file]
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/sim"
)

//go:embed testdata/sim_digests.json
var pinnedDigests []byte

const (
	// minSamples is the fewest timed samples a -seconds run takes.
	minSamples = 3
	// tracedRuns is how many traced runs each workload makes with -trace 1.
	tracedRuns = 3
	// tracedTolerance is how far the traced runs' corrected total may sit
	// from the untraced median before they fail; see checkTraced.
	tracedTolerance = 0.25
	tracedMinNs     = 100e6
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all, round-robin)")
	seed := fs.Uint64("seed", 1, "stream synthesis seed; seed 1 is checked against testdata/sim_digests.json")
	seconds := fs.Float64("seconds", 0, "take timed samples for this long (0: take 15 per workload)")
	trace := fs.Int("trace", 1, "1: add traced runs and report the per-layer metrics; 0: report the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write each workload's first traced run (span aggregates and raw spans) as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b := &bench{workloads: workloads, seed: *seed, div: 1, seconds: *seconds, samples: 15, trace: *trace == 1}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		b.workloads = []*workloadDef{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be >= 0, and there are no positional arguments")
		return 2
	}
	pins, err := parsePins(pinnedDigests)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b.pins = pins
	var traceFile *os.File
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			fmt.Fprintln(stderr, "benchmark: trace-out:", err)
			return 2
		}
		b.traceOut = bufio.NewWriter(traceFile)
	}

	rs := b.run()
	if traceFile != nil {
		err := b.traceOut.Flush()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: trace-out:", err)
			return 1
		}
	}
	for _, r := range rs {
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", r.w.name, p)
		}
	}
	if !report(stdout, rs, b.trace, *name == "") {
		return 1
	}
	return 0
}

// parsePins reads the pinned seed-1 digests: workload name (with an
// "@1/<div>" suffix for shrunken runs) to a hex digest.
func parsePins(raw []byte) (map[string]uint64, error) {
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("sim_digests.json: %w", err)
	}
	pins := make(map[string]uint64, len(m))
	for k, v := range m {
		d, err := strconv.ParseUint(v, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("sim_digests.json: %s: %w", k, err)
		}
		pins[k] = d
	}
	return pins, nil
}

type bench struct {
	workloads []*workloadDef
	seed      uint64
	div       int // per-core stream length divisor
	seconds   float64
	samples   int // timed samples per workload when seconds is 0
	trace     bool
	pins      map[string]uint64
	// traceOut, when set, receives each workload's first traced run:
	// span aggregates and the raw span ring, as JSON lines.
	traceOut *bufio.Writer
}

// result accumulates one workload's runs.
type result struct {
	w                   *workloadDef
	attempted, failed   int
	problems            []string
	ref                 *counters // first checked run; every later run must match its digest
	setupS, rate, alloc []float64
	heapMB, runNs       []float64
	// Traced runs: raw and calibration-corrected Drive totals (ns), and
	// the per-layer host metrics of each.
	rawNs, correctedNs []float64
	layers             map[string][]float64
}

// run makes one discarded warm-up run per workload, then timed samples
// round-robin across the workloads, so host drift hits all alike. With
// tracing, each of the first tracedRuns rounds also makes a traced run
// per workload, interleaved with the untraced samples it is compared to.
func (b *bench) run() []*result {
	var countCost float64
	if b.trace {
		countCost = countingCost()
	}
	rs := make([]*result, len(b.workloads))
	for i, w := range b.workloads {
		rs[i] = &result{w: w, layers: map[string][]float64{}}
		b.untraced(rs[i], false)
	}
	start := time.Now()
	for n := 0; !b.enough(n, start); n++ {
		for _, r := range rs {
			b.untraced(r, true)
			if b.trace && n < tracedRuns {
				b.traced(r, countCost)
			}
		}
	}
	for _, r := range rs {
		r.checkTraced()
	}
	return rs
}

func (b *bench) enough(n int, start time.Time) bool {
	if b.seconds > 0 {
		return n >= minSamples && time.Since(start).Seconds() >= b.seconds
	}
	return n >= b.samples
}

// setup builds the cell: streams plus the system constructors, which is
// what setup_s times.
func (b *bench) setup(w *workloadDef, t *tracer) (*cell, error) {
	lay, err := w.layout()
	if err != nil {
		return nil, err
	}
	streams, err := w.streams(lay.cores, b.div, b.seed)
	if err != nil {
		return nil, err
	}
	return build(lay, streams, t)
}

func (b *bench) untraced(r *result, keep bool) {
	r.attempted++
	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	c, err := b.setup(r.w, nil)
	setup := time.Since(start)
	if err != nil {
		r.fail("setup: " + err.Error())
		return
	}
	var steps atomic.Uint64
	t0 := time.Now()
	cycles, err := c.run(context.Background(), &steps)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(c) // the live heap is measured with the system reachable
	if err != nil {
		r.fail("run: " + err.Error())
		return
	}
	k, ok := b.check(r, c, cycles)
	if !ok || !keep {
		return
	}
	acc := float64(k.accesses())
	r.setupS = append(r.setupS, setup.Seconds())
	r.rate = append(r.rate, acc/elapsed.Seconds())
	r.alloc = append(r.alloc, float64(after.TotalAlloc-before.TotalAlloc)/acc)
	r.heapMB = append(r.heapMB, float64(live.HeapAlloc)/1e6)
	r.runNs = append(r.runNs, float64(elapsed))
}

func (b *bench) traced(r *result, countCost float64) {
	r.attempted++
	runtime.GC()
	t := newTracer()
	c, err := b.setup(r.w, t)
	if err != nil {
		r.fail("traced setup: " + err.Error())
		return
	}
	var steps atomic.Uint64
	cycles, err := c.runTraced(context.Background(), &steps, t)
	if err != nil {
		r.fail("traced run: " + err.Error())
		return
	}
	k, ok := b.check(r, c, cycles)
	if !ok {
		return
	}
	host, total := hostLayers(t, countCost, k.accesses())
	for name, v := range host {
		r.layers[name] = append(r.layers[name], v)
	}
	r.rawNs = append(r.rawNs, float64(t.agg[spanDrive].total))
	r.correctedNs = append(r.correctedNs, total)
	if b.traceOut != nil && len(r.correctedNs) == 1 {
		writeSpans(b.traceOut, r.w.name, t)
	}
}

// checkTraced compares the traced runs with the untraced samples: when
// the median corrected total sits more than tracedTolerance from the
// untraced median, the correction did not account for the tracing cost
// and every traced run counts as failed. The median, not each run, is
// compared because single runs on a shared host spread by more than the
// tolerance; runs shorter than tracedMinNs (the smoke test's) are not
// compared, as start-up effects swamp the tracing cost there.
func (r *result) checkTraced() {
	untraced := median(r.runNs)
	if len(r.rawNs) == 0 || untraced == 0 {
		return
	}
	for _, raw := range r.rawNs {
		r.layers["trace.overhead_x"] = append(r.layers["trace.overhead_x"], raw/untraced)
	}
	if c := median(r.correctedNs); untraced >= tracedMinNs && math.Abs(c-untraced)/untraced > tracedTolerance {
		r.failed += len(r.correctedNs)
		r.problems = append(r.problems, fmt.Sprintf(
			"traced runs: median corrected total %.0f ms is more than %.0f%% from the untraced median %.0f ms",
			c/1e6, 100*tracedTolerance, untraced/1e6))
	}
}

func (r *result) fail(problem string) {
	r.failed++
	r.problems = append(r.problems, problem)
}

// check validates a finished run: the invariants, zero DEVs where the
// backend promises them, and the simulated digest, which must equal the
// first run's and, for seed 1, the pin.
func (b *bench) check(r *result, c *cell, cycles sim.Cycle) (counters, bool) {
	k := c.counters(cycles)
	var problems []string
	if err := c.checkInvariants(); err != nil {
		problems = append(problems, "invariants: "+err.Error())
	}
	if r.w.zeroDEV && k.eng.DEVs != 0 {
		problems = append(problems, fmt.Sprintf("%d DEVs on a zero-DEV backend", k.eng.DEVs))
	}
	if r.ref == nil {
		r.ref = &k
	} else if k.digest != r.ref.digest {
		problems = append(problems, fmt.Sprintf("digest %#x differs from the first run's %#x", k.digest, r.ref.digest))
	}
	if pin, ok := b.pin(r.w.name); ok && k.digest != pin {
		problems = append(problems, fmt.Sprintf("digest %#x differs from the seed-1 pin %#x", k.digest, pin))
	}
	if len(problems) > 0 {
		r.fail(strings.Join(problems, "; "))
		return k, false
	}
	return k, true
}

func (b *bench) pin(name string) (uint64, bool) {
	if b.seed != 1 {
		return 0, false
	}
	if b.div != 1 {
		name = fmt.Sprintf("%s@1/%d", name, b.div)
	}
	d, ok := b.pins[name]
	return d, ok
}

// values returns every metric of one workload as its samples: host
// metrics one per timed or traced run, simulated ones (which repeat
// exactly) once. Per-layer metrics appear only after traced runs.
func (r *result) values() map[string][]float64 {
	v := map[string][]float64{
		"accesses_per_s":         r.rate,
		"setup_s":                r.setupS,
		"alloc_bytes_per_access": r.alloc,
		"heap_live_mb":           r.heapMB,
	}
	if r.ref == nil {
		return v
	}
	for name, x := range simEndToEnd(r.ref) {
		v[name] = []float64{x}
	}
	if len(r.layers) == 0 {
		return v
	}
	for name, x := range simLayers(r.ref) {
		v[name] = []float64{x}
	}
	for name, x := range r.layers {
		v[name] = x
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints a table per workload, then the JSON result line: the
// end-to-end metrics, or with tracing the per-layer ones. With several
// workloads the metric names carry a "<workload>." prefix. It reports
// whether every run passed its checks.
func report(w io.Writer, rs []*result, traced, prefix bool) bool {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, r := range rs {
		v := r.values()
		fmt.Fprintf(w, "== %s: %d runs, %d failed", r.w.name, r.attempted, r.failed)
		if r.ref != nil {
			fmt.Fprintf(w, ", digest %#016x", r.ref.digest)
		}
		if u := median(r.runNs); len(r.correctedNs) > 0 && u > 0 {
			fmt.Fprintf(w, ", traced corrected total %.3f of untraced", median(r.correctedNs)/u)
		}
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tbetter\tmedian\tq1\tq3\tn\t")
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			s, ok := v[m.name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(s)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", m.name, m.unit, m.better, median(s), q1, q3, len(s))
		}
		tw.Flush()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range set {
			name := m.name
			if prefix {
				name = r.w.name + "." + name
			}
			out.Metrics[name] = jsonMetric{Value: median(v[m.name]), Unit: m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, _ := json.Marshal(out) // plain structs of finite floats
	fmt.Fprintln(w, string(line))
	return out.Correct
}

// writeSpans writes one line per span kind with its aggregates, then
// the retained raw spans oldest first. Write errors stick in w and
// surface at its Flush.
func writeSpans(w io.Writer, workload string, t *tracer) {
	enc := json.NewEncoder(w)
	for id := spanID(0); id < numSpans; id++ {
		a := t.agg[id]
		if a.count == 0 {
			continue
		}
		enc.Encode(map[string]any{"workload": workload, "span": spanNames[id],
			"count": a.count, "total_ns": a.total, "self_ns": a.self})
	}
	for _, s := range t.spans() {
		enc.Encode(map[string]any{"workload": workload, "seq": s.seq, "parent": s.parent,
			"step": s.step, "span": spanNames[s.id], "start_ns": s.start, "dur_ns": s.dur})
	}
}
