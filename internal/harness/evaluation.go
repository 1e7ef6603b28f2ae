package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/stats"
)

// Figures 17-27: the ZeroDEV evaluation.

func init() {
	register("fig17", "Fig 17: SpillAll vs FPSS vs FuseAll (ZeroDEV, no directory)", fig17)
	register("fig18", "Fig 18: spLRU vs dataLRU at 8 MB and 4 MB LLC", fig18)
	register("fig19", "Fig 19: ZeroDEV on PARSEC (1x, 1/8x, NoDir)", figPerApp("fig19", []string{"PARSEC"}))
	register("fig20", "Fig 20: ZeroDEV on SPLASH2X, SPEC OMP, FFTW", figPerApp("fig20", []string{"SPLASH2X", "SPECOMP", "FFTW"}))
	register("fig21", "Fig 21: ZeroDEV on SPEC CPU2017 rate", figPerApp("fig21", []string{"CPU2017"}))
	register("fig22", "Fig 22: sensitivity to LLC capacity (4 MB, 16 MB)", fig22)
	register("fig23", "Fig 23: heterogeneous multiprogrammed workloads", fig23)
	register("fig24", "Fig 24: server workloads on the 128-core socket", fig24)
	register("fig25", "Fig 25: EPD and inclusive LLCs", fig25)
	register("fig26", "Fig 26: comparison with Multi-grain Directory", fig26)
	register("fig27", "Fig 27: comparison with SecDir", fig27)
	register("claims", "Sec III-D3 claims: DE traffic and corrupted-block access rates", claims)
}

// zdev builds the standard ZeroDEV spec: FPSS + dataLRU (the policies
// the paper selects in Figs. 17-18).
func zdev(pre config.Preset, ratio float64, mode llc.Mode) core.SystemSpec {
	return pre.ZeroDEV(ratio, core.FPSS, llc.DataLRU, mode)
}

func fig17(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"SpillAll", pre.ZeroDEV(0, core.SpillAll, llc.DataLRU, llc.NonInclusive)},
		{"FPSS", pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
		{"FuseAll", pre.ZeroDEV(0, core.FuseAll, llc.DataLRU, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 17: ZeroDEV policy comparison (no sparse directory, dataLRU); speedup vs baseline 1x [min in brackets]",
		Headers: []string{"suite", "SpillAll", "FPSS", "FuseAll"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{allSuites[si]}
		for ci := range cfgs {
			if err := r.err(ci); err != nil {
				row = append(row, CellText(err))
			} else {
				row = append(row, fmt.Sprintf("%.3f [%.2f]", r.geo(ci), r.min(ci)))
			}
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig18(o Options, w io.Writer) error {
	pre8 := config.TableI(o.Scale)
	pre4 := pre8
	pre4.LLCBytes /= 2
	cfgs := []namedSpec{
		{"sp8MB", pre8.ZeroDEV(0, core.FPSS, llc.SpLRU, llc.NonInclusive)},
		{"data8MB", pre8.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
		{"Base4MB", pre4.Baseline(1, llc.NonInclusive)},
		{"sp4MB", pre4.ZeroDEV(0, core.FPSS, llc.SpLRU, llc.NonInclusive)},
		{"data4MB", pre4.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 18: spLRU vs dataLRU (ZeroDEV, no directory); speedup vs baseline 8 MB 1x",
		Headers: []string{"suite", "sp8MB", "data8MB", "Base4MB", "sp4MB", "data4MB"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre8.Baseline(1, llc.NonInclusive), cfgs) {
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

// figPerApp builds Figs. 19-21: per-application ZeroDEV speedups for
// three directory configurations.
func figPerApp(id string, suites []string) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		pre := config.TableI(o.Scale)
		cfgs := []namedSpec{
			{"1x", zdev(pre, 1, llc.NonInclusive)},
			{"1/8x", zdev(pre, 1.0/8, llc.NonInclusive)},
			{"NoDir", zdev(pre, 0, llc.NonInclusive)},
		}
		t := stats.Table{
			Title:   id + ": ZeroDEV (FPSS, dataLRU) speedup vs baseline 1x",
			Headers: []string{"app", "1x", "1/8x", "NoDir"},
		}
		r := newSweep(o, unitsOf(o, suites), pre.Baseline(1, llc.NonInclusive), cfgs).result()
		r.addUnitRows(&t)
		t.Fprint(w)
		return r.failed()
	}
}

func fig22(o Options, w io.Writer) error {
	pre8 := config.TableI(o.Scale)
	pre4, pre16 := pre8, pre8
	pre4.LLCBytes /= 2
	pre16.LLCBytes *= 2
	cfgs := []namedSpec{
		{"Base4MB", pre4.Baseline(1, llc.NonInclusive)},
		{"ZeroDEV4MB", zdev(pre4, 1.0/4, llc.NonInclusive)},
		{"Base16MB", pre16.Baseline(1, llc.NonInclusive)},
		{"ZeroDEV16MB", zdev(pre16, 0, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 22: LLC capacity sensitivity; speedup vs baseline 8 MB 1x",
		Headers: []string{"suite", "Base4MB", "ZeroDEV4MB(1/4x)", "Base16MB", "ZeroDEV16MB(NoDir)"},
	}
	var errs []error
	for si, r := range sweepGroups(o, allSuites, pre8.Baseline(1, llc.NonInclusive), cfgs) {
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

func fig23(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"1x", zdev(pre, 1, llc.NonInclusive)},
		{"1/8x", zdev(pre, 1.0/8, llc.NonInclusive)},
		{"NoDir", zdev(pre, 0, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 23: heterogeneous 8-way mixes; normalized weighted speedup vs baseline 1x",
		Headers: []string{"mix", "1x", "1/8x", "NoDir"},
	}
	r := sweepGroup(o, "CPU-HET", pre.Baseline(1, llc.NonInclusive), cfgs)
	r.addUnitRows(&t)
	t.Fprint(w)
	return r.failed()
}

func fig24(o Options, w io.Writer) error {
	pre := config.Server128(o.Scale)
	so := o
	so.Accesses = o.Accesses / 4 // 128 cores: keep total work comparable
	if so.Accesses < 5000 {
		so.Accesses = 5000
	}
	t := stats.Table{
		Title:   "Fig 24: server workloads, 128-core socket, 32 MB LLC; speedup vs baseline 1x",
		Headers: []string{"app", "1x", "1/8x", "NoDir"},
	}
	cfgs := []namedSpec{
		{"1x", zdev(pre, 1, llc.NonInclusive)},
		{"1/8x", zdev(pre, 1.0/8, llc.NonInclusive)},
		{"nodir", zdev(pre, 0, llc.NonInclusive)},
	}
	r := sweepGroup(so, "SERVER", pre.Baseline(1, llc.NonInclusive), cfgs)
	r.addUnitRows(&t)
	t.Fprint(w)
	return r.failed()
}

// fig25Groups lists the x-axis groups of Figs. 25-27.
var fig25Groups = []string{"PARSEC", "SPLASH2X", "SPECOMP", "FFTW", "CPU-RATE", "CPU-HET"}

func fig25(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"BaseEPD-1x", pre.Baseline(1, llc.EPD)},
		{"BaseEPD-1/2x", pre.Baseline(1.0/2, llc.EPD)},
		{"BaseEPD-1/8x", pre.Baseline(1.0/8, llc.EPD)},
		{"ZDevEPD-NoDir", zdev(pre, 0, llc.EPD)},
		{"ZDevEPD-1/2x", zdev(pre, 1.0/2, llc.EPD)},
		{"ZDevEPD-1x", zdev(pre, 1, llc.EPD)},
		{"BaseIncl-1x", pre.Baseline(1, llc.Inclusive)},
		{"ZDevIncl-NoDir", zdev(pre, 0, llc.Inclusive)},
	}
	t := stats.Table{
		Title:   "Fig 25: EPD and inclusive LLCs; speedup vs baseline non-inclusive 1x",
		Headers: append([]string{"suite"}, specNames(cfgs)...),
	}
	const baseIncl, zdevIncl = 6, 7 // the inclusive columns the forced-invalidation line compares
	forced := func(runs []stats.Run) (n float64) {
		for _, run := range runs {
			n += float64(run.Engine.InclusionInvals + run.Engine.DEVs)
		}
		return n
	}
	var forcedBase, forcedZdev float64
	var forcedErr error
	var errs []error
	for gi, r := range sweepGroups(o, fig25Groups, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{fig25Groups[gi]}
		for ci := range cfgs {
			row = append(row, r.geoCell(ci))
		}
		t.AddRow(row...)
		forcedBase += forced(r.runs[baseIncl])
		forcedZdev += forced(r.runs[zdevIncl])
		for _, ci := range []int{baseIncl, zdevIncl} {
			if forcedErr == nil {
				forcedErr = r.err(ci)
			}
		}
	}
	t.Fprint(w)
	const forcedLine = "Forced invalidations eliminated by ZeroDEVIncl vs BaseIncl: %s (paper: 95%%)\n\n"
	switch {
	case forcedErr != nil:
		fmt.Fprintf(w, forcedLine, CellText(forcedErr))
	case forcedBase > 0:
		fmt.Fprintf(w, forcedLine, fmt.Sprintf("%.1f%%", 100*(1-forcedZdev/forcedBase)))
	}
	return errors.Join(errs...)
}

func fig26(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"MgD-1/8x", pre.MgD(1.0/8, llc.NonInclusive)},
		{"MgD-1/16x", pre.MgD(1.0/16, llc.NonInclusive)},
		{"MgD-1/32x", pre.MgD(1.0/32, llc.NonInclusive)},
		{"ZDev-1x", zdev(pre, 1, llc.NonInclusive)},
		{"ZDev-1/8x", zdev(pre, 1.0/8, llc.NonInclusive)},
		{"ZDev-NoDir", zdev(pre, 0, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 26: Multi-grain Directory vs ZeroDEV; speedup vs baseline 1x",
		Headers: append([]string{"suite"}, specNames(cfgs)...),
	}
	var errs []error
	for gi, r := range sweepGroups(o, fig25Groups, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{fig25Groups[gi]}
		for ci := range cfgs {
			row = append(row, r.geoCell(ci))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func fig27(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	cfgs := []namedSpec{
		{"SecDir-1x", pre.SecDir(1, llc.NonInclusive)},
		{"Base-1/8x", pre.Baseline(1.0/8, llc.NonInclusive)},
		{"SecDir-1/8x", pre.SecDir(1.0/8, llc.NonInclusive)},
		{"ZDev-1x", zdev(pre, 1, llc.NonInclusive)},
		{"ZDev-1/8x", zdev(pre, 1.0/8, llc.NonInclusive)},
		{"ZDev-NoDir", zdev(pre, 0, llc.NonInclusive)},
	}
	t := stats.Table{
		Title:   "Fig 27: SecDir vs ZeroDEV; speedup vs baseline 1x [min in brackets]",
		Headers: append([]string{"suite"}, specNames(cfgs)...),
	}
	var errs []error
	for gi, r := range sweepGroups(o, fig25Groups, pre.Baseline(1, llc.NonInclusive), cfgs) {
		errs = append(errs, r.failed())
		row := []string{fig25Groups[gi]}
		for ci := range cfgs {
			if err := r.err(ci); err != nil {
				row = append(row, CellText(err))
			} else {
				row = append(row, fmt.Sprintf("%.3f [%.2f]", r.geo(ci), r.min(ci)))
			}
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

// claims checks the §III-D3 instrumentation claims for ZeroDEV without
// a sparse directory.
func claims(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	t := stats.Table{
		Title:   "Sec III-D3 claims under ZeroDEV(NoDir): DE share of DRAM writes (<0.5%), corrupted LLC read misses (<0.05%)",
		Headers: []string{"suite", "DE writes %", "corrupted read misses %", "WB_DE", "GET_DE"},
	}
	nodir := []namedSpec{{"nodir", zdev(pre, 0, llc.NonInclusive)}}
	grids := make([]grid[stats.Run], len(allSuites))
	for si, suite := range allSuites {
		grids[si] = unitGrid(o, groupUnits(o, suite), nodir)
	}
	var errs []error
	for si, suite := range allSuites {
		rows, err := grids[si].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(suite, cell, cell, "", "")
			continue
		}
		var wbde, getde, dw, crm, reads uint64
		for _, runs := range rows {
			x := runs[0]
			wbde += x.Engine.DEEvictionsToMemory
			getde += x.Engine.GetDEFlows
			dw += x.DRAM.Writes
			crm += x.Engine.CorruptedReadMisses
			reads += x.Engine.Reads
		}
		dePct, crmPct := 0.0, 0.0
		if dw > 0 {
			dePct = 100 * float64(wbde) / float64(dw)
		}
		if reads > 0 {
			crmPct = 100 * float64(crm) / float64(reads)
		}
		t.AddRow(suite, fmt.Sprintf("%.3f%%", dePct), fmt.Sprintf("%.4f%%", crmPct),
			fmt.Sprintf("%d", wbde), fmt.Sprintf("%d", getde))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

func unitSpeedup(u unit, base, x stats.Run) float64 {
	if u.mt {
		return stats.Speedup(base, x)
	}
	return stats.WeightedSpeedup(base, x)
}

func specNames(cfgs []namedSpec) []string {
	var out []string
	for _, c := range cfgs {
		out = append(out, c.name)
	}
	return out
}
