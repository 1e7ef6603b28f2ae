package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/llc"
	"repro/internal/stats"
)

// Figures 2-6: the motivation studies quantifying DEV cost and the
// headroom for caching directory entries in the LLC.

func init() {
	register("fig2", "Fig 2: 1x vs unbounded directory, CPU2017 rate workloads", fig2)
	register("fig3", "Fig 3: 1x vs unbounded directory, multithreaded workloads", fig3)
	register("fig4", "Fig 4: performance impact of sparse directory size", fig4)
	register("fig5", "Fig 5: projected LLC occupancy of spilled directory entries", fig5)
	register("fig6", "Fig 6: performance with reduced LLC associativity", fig6)
}

// baseUnbSpecs are the two columns of Figs. 2 and 3: the 1x baseline
// and the unbounded directory.
func baseUnbSpecs(pre config.Preset) []namedSpec {
	return []namedSpec{
		{"base1x", pre.Baseline(1, llc.NonInclusive)},
		{"unbounded", pre.Unbounded(llc.NonInclusive)},
	}
}

func fig2(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	t := stats.Table{
		Title:   "Fig 2: normalized traffic / core cache misses / weighted speedup (unbounded vs 1x), 8-way rate",
		Headers: []string{"app", "traffic", "misses", "speedup", "savedMPKI"},
	}
	units := groupUnits(o, "CPU2017")
	g := unitGrid(o, units, baseUnbSpecs(pre))
	var traf, miss, spd []float64
	var errs []error
	for i, u := range units {
		runs, err := g.row(i)
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(u.name, cell, cell, cell, "")
			continue
		}
		base, unb := runs[0], runs[1]
		tr, ms := stats.NormTraffic(base, unb), stats.NormMisses(base, unb)
		sp := stats.WeightedSpeedup(base, unb)
		t.AddRow(u.name, f3(tr), f3(ms), f3(sp), fmt.Sprintf("%.1f", base.MPKI()-unb.MPKI()))
		traf = append(traf, tr)
		miss = append(miss, ms)
		spd = append(spd, sp)
	}
	if len(errs) > 0 {
		cell := CellText(errs[0])
		t.AddRow("AVG", cell, cell, cell, "")
	} else {
		t.AddRow("AVG", f3(stats.Mean(traf)), f3(stats.Mean(miss)), f3(stats.GeoMean(spd)), "")
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig3(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	t := stats.Table{
		Title:   "Fig 3: normalized traffic / core cache misses / speedup (unbounded vs 1x), multithreaded",
		Headers: []string{"app/suite", "traffic", "misses", "speedup", "savedMPKI"},
	}
	specs := baseUnbSpecs(pre)
	apps := groupUnits(o, "PARSEC")
	appGrid := unitGrid(o, apps, specs)
	suiteGrids := make([]grid[stats.Run], len(mtSuites))
	for si, suite := range mtSuites {
		suiteGrids[si] = unitGrid(o, groupUnits(o, suite), specs)
	}
	var errs []error
	for i, u := range apps {
		runs, err := appGrid.row(i)
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(u.name, cell, cell, cell, "")
			continue
		}
		base, unb := runs[0], runs[1]
		t.AddRow(u.name, f3(stats.NormTraffic(base, unb)), f3(stats.NormMisses(base, unb)),
			f3(stats.Speedup(base, unb)), fmt.Sprintf("%.1f", base.MPKI()-unb.MPKI()))
	}
	for si, suite := range mtSuites {
		rows, err := suiteGrids[si].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(suite+"-AVG", cell, cell, cell, "")
			continue
		}
		var traf, miss, spd []float64
		for _, runs := range rows {
			traf = append(traf, stats.NormTraffic(runs[0], runs[1]))
			miss = append(miss, stats.NormMisses(runs[0], runs[1]))
			spd = append(spd, stats.Speedup(runs[0], runs[1]))
		}
		t.AddRow(suite+"-AVG", f3(stats.Mean(traf)), f3(stats.Mean(miss)), f3(stats.GeoMean(spd)), "")
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig4(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"1/2x", pre.Baseline(1.0/2, llc.NonInclusive)},
		{"1/8x", pre.Baseline(1.0/8, llc.NonInclusive)},
		{"1/32x", pre.Baseline(1.0/32, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 4: speedup vs 1x baseline as the sparse directory shrinks",
		Headers: []string{"suite", "1/2x", "1/8x", "1/32x"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{allSuites[si]}
		for ci := range cfgs {
			row = append(row, r.geoCell(ci))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig5(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	llcBlocks := pre.LLCBytes / 64
	t := stats.Table{
		Title:   "Fig 5: peak directory entries overflowing the 1x organization, as % of LLC blocks (one spilled entry = one LLC block)",
		Headers: []string{"suite", "max-of-max", "avg-of-max", "max app"},
	}
	unb := []namedSpec{{"unbounded", pre.Unbounded(llc.NonInclusive)}}
	units := make([][]unit, len(allSuites))
	grids := make([]grid[stats.Run], len(allSuites))
	for si, suite := range allSuites {
		units[si] = groupUnits(o, suite)
		grids[si] = unitGrid(o, units[si], unb)
	}
	var errs []error
	for si, suite := range allSuites {
		rows, err := grids[si].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(suite, cell, cell, "")
			continue
		}
		var occ []float64
		maxApp, maxV := "", 0.0
		for ui, runs := range rows {
			pct := 100 * float64(runs[0].DirPeakOverflow) / float64(llcBlocks)
			occ = append(occ, pct)
			if pct >= maxV {
				maxV, maxApp = pct, units[si][ui].name
			}
		}
		t.AddRow(suite, fmt.Sprintf("%.1f%%", stats.Max(occ)), fmt.Sprintf("%.1f%%", stats.Mean(occ)), maxApp)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig6(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	fullSets := pre.LLCBytes / 64 / pre.LLCWays / pre.LLCBanks
	var cfgs []namedSpec
	for _, ways := range []int{15, 14, 13, 12} {
		spec := pre.Baseline(1, llc.NonInclusive)
		spec.LLCSets = fullSets
		spec.LLCWays = ways
		cfgs = append(cfgs, namedSpec{fmt.Sprintf("%dways", ways), spec})
	}
	t := stats.Table{
		Title:   "Fig 6: speedup vs 16-way LLC as ways are removed (min-speedup app in parentheses)",
		Headers: []string{"suite", "15 ways", "14 ways", "13 ways", "12 ways", "worst@12"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{allSuites[si]}
		for ci := range cfgs {
			row = append(row, r.geoCell(ci))
		}
		if err := r.err(3); err != nil {
			row = append(row, CellText(err))
		} else {
			worst, worstApp := 10.0, ""
			for ui, u := range r.units {
				if s12 := r.speedups[3][ui]; s12 < worst {
					worst, worstApp = s12, u.name
				}
			}
			row = append(row, fmt.Sprintf("%s %.2f", worstApp, worst))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
