package harness

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/socket"
	"repro/internal/stats"
)

// Ablations of the design choices DESIGN.md calls out, plus the
// compressed-format extension study (§III-D) and the derived Fig. 12
// design-space summary.

func init() {
	register("fig12", "Fig 12: design space of directory-entry caching (derived)", fig12)
	register("ablation-repl", "Ablation (Sec III-C4): replacement-disabled vs replacement-enabled sparse directory under ZeroDEV", ablationRepl)
	register("ablation-llcrepl", "Ablation (Sec III-D1): plain LRU vs spLRU vs dataLRU under ZeroDEV", ablationLLCRepl)
	register("ablation-backing", "Ablation (Sec III-D5): socket-directory backing schemes on 4 sockets", ablationBacking)
	register("compress", "Extension (Sec III-D): hybrid limited-pointer/coarse-vector entry compression", compressExp)
	register("ablation-prefetch", "Ablation: stream prefetching under baseline and ZeroDEV", ablationPrefetch)
}

// fig12 places the three caching policies on the paper's qualitative
// design-space chart by measuring both axes: LLC space overhead
// (fraction of lines holding spilled entries — fused entries are free)
// and the read-critical-path overhead (extra data-array reads for
// SpillAll, extra three-hop forwards for FuseAll).
func fig12(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	t := stats.Table{
		Title:   "Fig 12 (derived): LLC space overhead vs read critical-path overhead per policy",
		Headers: []string{"policy", "spilled lines %", "fused lines %", "extra reads/1k", "fwd reads/1k", "avg read lat"},
	}
	policies := []core.DEPolicy{core.SpillAll, core.FPSS, core.FuseAll}
	units := unitsOf(o, mtSuites)
	grids := make([]grid[stats.Run], len(policies))
	for pi, pol := range policies {
		grids[pi] = unitGrid(o, units, []namedSpec{{pol.String(), pre.ZeroDEV(0, pol, llc.DataLRU, llc.NonInclusive)}})
	}
	var errs []error
	for pi, pol := range policies {
		rows, err := grids[pi].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(pol.String(), cell, cell, cell, cell, cell)
			continue
		}
		var spill, fuse, blocks, extra, fwd, reads float64
		var latSum, latN uint64
		for _, runs := range rows {
			x := runs[0]
			spill += float64(x.LLCSpilled)
			fuse += float64(x.LLCFused)
			blocks += float64(pre.LLCBytes / 64)
			extra += float64(x.Engine.SpillAllExtraDataReads)
			fwd += float64(x.Engine.Forwards3Hop)
			reads += float64(x.Engine.Reads)
			latSum += x.Engine.LatReadLLCHit + x.Engine.LatReadForward + x.Engine.LatReadMemory
			latN += x.Engine.NReadLLCHit + x.Engine.NReadForward + x.Engine.NReadMemory
		}
		t.AddRow(pol.String(),
			fmt.Sprintf("%.1f%%", 100*spill/blocks),
			fmt.Sprintf("%.1f%%", 100*fuse/blocks),
			fmt.Sprintf("%.1f", 1000*extra/reads),
			fmt.Sprintf("%.1f", 1000*fwd/reads),
			fmt.Sprintf("%.1f cyc", float64(latSum)/float64(latN)))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "Paper Fig 12: SpillAll = max space + lookup-latency overhead;")
	fmt.Fprintln(w, "FPSS = modest space, no read overhead; FuseAll = minimal space, +1 hop on shared reads.")
	fmt.Fprintln(w)
	return errors.Join(errs...)
}

func ablationRepl(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"repl-disabled", zdev(pre, 1.0/8, llc.NonInclusive)},
		{"repl-enabled", pre.ZeroDEVReplEnabled(1.0/8, core.FPSS, llc.DataLRU, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Ablation III-C4: ZeroDEV with 1/8x directory, replacement disabled vs enabled; speedup vs baseline 1x",
		Headers: []string{"suite", "disabled", "enabled", "displaced entries (enabled)"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		var displaced, devs uint64
		for _, run := range r.runs[1] {
			displaced += run.Engine.DEDisplacedToLLC
			devs += run.Engine.DEVs
		}
		if devs != 0 {
			return fmt.Errorf("replacement-enabled ZeroDEV produced %d DEVs", devs)
		}
		t.AddRow(allSuites[si], r.geoCell(0), r.geoCell(1), fmt.Sprintf("%d", displaced))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func ablationLLCRepl(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"LRU", pre.ZeroDEV(0, core.FPSS, llc.LRU, llc.NonInclusive)},
		{"spLRU", pre.ZeroDEV(0, core.FPSS, llc.SpLRU, llc.NonInclusive)},
		{"dataLRU", pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Ablation III-D1: LLC replacement under ZeroDEV(NoDir); speedup vs baseline 1x [WB_DE count]",
		Headers: []string{"suite", "LRU", "spLRU", "dataLRU"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{allSuites[si]}
		for ci := range cfgs {
			if err := r.err(ci); err != nil {
				row = append(row, CellText(err))
				continue
			}
			var wbde uint64
			for _, run := range r.runs[ci] {
				wbde += run.Engine.DEEvictionsToMemory
			}
			row = append(row, fmt.Sprintf("%.3f [%d]", r.geo(ci), wbde))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func ablationBacking(o Options, w io.Writer) error {
	const sockets = 4
	pre := config.TableI(o.Scale)
	so := o
	so.Accesses = o.Accesses / 2
	t := stats.Table{
		Title:   "Ablation III-D5: socket-directory backing on 4 sockets (ZeroDEV NoDir); cycles relative to MemoryBackup",
		Headers: []string{"suite", "MemoryBackup", "DirEvictBit", "dir-cache misses (MB/DEB)", "DirEvict hits"},
	}
	mb := socket.DefaultParams(sockets, 65536/so.Scale*8)
	deb := mb
	deb.Backing = socket.DirEvictBit
	spec := zdev(pre, 0, llc.NonInclusive)
	cols := []socketCol{{"mb", mb, spec}, {"deb", deb, spec}}
	grids := make([]grid[stats.Run], len(mtSuites))
	for si, suite := range mtSuites {
		grids[si] = socketGrid(so, groupUnits(so, suite), cols)
	}
	var errs []error
	for si, suite := range mtSuites {
		rows, err := grids[si].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(suite, cell, cell, cell, cell)
			continue
		}
		var rel []float64
		var missMB, missDEB, hits uint64
		for _, runs := range rows {
			mb, deb := runs[0], runs[1]
			rel = append(rel, float64(mb.Cycles)/float64(deb.Cycles))
			missMB += mb.Socket.DirCacheMisses
			missDEB += deb.Socket.DirCacheMisses
			hits += deb.Socket.DirEvictBitHits
		}
		t.AddRow(suite, "1.000", f3(stats.GeoMean(rel)),
			fmt.Sprintf("%d/%d", missMB, missDEB), fmt.Sprintf("%d", hits))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

// ablationPrefetch checks that the zero-DEV guarantee and the relative
// results are robust to a stream prefetcher (degree 2), which inflates
// directory churn with prefetched E-state blocks.
func ablationPrefetch(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	pfPre := pre
	pfPre.CPU.PrefetchDegree = 2
	cfgs := []namedSpec{
		{"base+pf", pfPre.Baseline(1, llc.NonInclusive)},
		{"zdev", zdev(pre, 0, llc.NonInclusive)},
		{"zdev+pf", zdev(pfPre, 0, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Ablation: stream prefetching (degree 2); speedup vs baseline 1x without prefetching",
		Headers: []string{"suite", "base+pf", "ZDev(NoDir)", "ZDev(NoDir)+pf", "prefetches"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		var pf, devs uint64
		for _, run := range r.runs[2] {
			devs += run.Engine.DEVs
			pf += run.CPU.Prefetches
		}
		if devs != 0 {
			return fmt.Errorf("prefetching broke the zero-DEV guarantee: %d", devs)
		}
		t.AddRow(allSuites[si], r.geoCell(0), r.geoCell(1), r.geoCell(2), fmt.Sprintf("%d", pf))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

// compressExp evaluates the hybrid compressed entry formats over the
// live directory-entry population of a 128-core ZeroDEV run: what
// fraction of entries stay precise at each bit budget, and how many
// extra invalidations the coarse entries would cost.
func compressExp(o Options, w io.Writer) error {
	pre := config.Server128(o.Scale)
	so := o
	so.Accesses = o.Accesses / 4
	if so.Accesses < 5000 {
		so.Accesses = 5000
	}
	budgets := []int{16, 32, 64}
	t := stats.Table{
		Title:   "Compression (Sec III-D): hybrid format over live entries, 128-core ZeroDEV(NoDir)",
		Headers: []string{"budget bits", "precise %", "avg over-invalidation", "max sockets @64B block"},
	}
	// acc's fields are exported so the cell JSON round-trips through
	// checkpoint/resume.
	type acc struct {
		Total, Precise int
		Over           int
	}
	spec := zdev(pre, 0, llc.NonInclusive)
	units := groupUnits(so, "SERVER")
	g := newGrid(so, unitNames(units), []string{"compress"}, func(ctx context.Context, r, _ int) ([]acc, error) {
		part := make([]acc, len(budgets))
		sys := core.NewSystem(spec, units[r].make(spec.Cores))
		if _, err := sys.RunCtx(ctx, JobSteps(ctx)); err != nil {
			return nil, err
		}
		sys.Engine.LLC().ForEachDE(func(addr coher.Addr, fused bool, e coher.Entry) {
			for bi, b := range budgets {
				c, err := coher.Compress(e, pre.Cores, b)
				if err != nil {
					continue
				}
				part[bi].Total++
				if c.Precise() {
					part[bi].Precise++
				} else {
					part[bi].Over += coher.OverInvalidation(e, c)
				}
			}
		})
		return part, nil
	})
	rows, err := g.all()
	sums := make([]acc, len(budgets))
	for _, parts := range rows {
		for bi, part := range parts[0] {
			sums[bi].Total += part.Total
			sums[bi].Precise += part.Precise
			sums[bi].Over += part.Over
		}
	}
	for bi, b := range budgets {
		s := sums[bi]
		sockets := fmt.Sprintf("%d (full map: %d)", coher.MaxSocketsCompressed(b), coher.MaxSocketsWithSocketPartition(pre.Cores))
		if err != nil {
			cell := CellText(err)
			t.AddRow(fmt.Sprintf("%d", b), cell, cell, sockets)
			continue
		}
		if s.Total == 0 {
			continue
		}
		imprecise := s.Total - s.Precise
		avgOver := 0.0
		if imprecise > 0 {
			avgOver = float64(s.Over) / float64(imprecise)
		}
		t.AddRow(fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f%%", 100*float64(s.Precise)/float64(s.Total)),
			fmt.Sprintf("%.1f cores", avgOver),
			sockets)
	}
	t.Fprint(w)
	return err
}
