package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/llc"
	"repro/internal/socket"
	"repro/internal/stats"
)

// Energy estimate (§V "Energy Expense") and the four-socket evaluation
// (§V "Multi-socket Evaluation").

func init() {
	register("energy", "Sec V: directory+LLC energy, ZeroDEV(NoDir) vs baseline 1x", energyExp)
	register("multisocket", "Sec V: four-socket evaluation, ZeroDEV(NoDir) vs baseline 1x", multisocketExp)
}

func energyExp(o Options, w io.Writer) error {
	pre := config.TableI(o.Scale)
	t := stats.Table{
		Title:   "Energy: dir+LLC energy of ZeroDEV(NoDir) relative to baseline 1x (paper: ~9% saving)",
		Headers: []string{"suite", "baseline", "zerodev", "saving"},
	}
	dirEntries := pre.DirEntries(1)
	specs := []namedSpec{
		{"base", pre.Baseline(1, llc.NonInclusive)},
		{"zdev", zdev(pre, 0, llc.NonInclusive)},
	}
	grids := make([]grid[stats.Run], len(allSuites))
	for si, suite := range allSuites {
		grids[si] = unitGrid(o, groupUnits(o, suite), specs)
	}
	var totB, totZ float64
	var errs []error
	for si, suite := range allSuites {
		rows, err := grids[si].all()
		if err != nil {
			errs = append(errs, err)
			cell := CellText(err)
			t.AddRow(suite, cell, cell, cell)
			continue
		}
		var eb, ez float64
		for _, runs := range rows {
			base, zd := runs[0], runs[1]
			eb += energy.Estimate(pre.Cores, dirEntries, pre.LLCBytes,
				uint64(base.Cycles), dirAccesses(base), llcAccesses(base)).Total()
			ez += energy.Estimate(pre.Cores, 0, pre.LLCBytes,
				uint64(zd.Cycles), 0, llcAccesses(zd)).Total()
		}
		t.AddRow(suite, "1.000", f3(ez/eb), fmt.Sprintf("%.1f%%", 100*(1-ez/eb)))
		totB += eb
		totZ += ez
	}
	if len(errs) > 0 {
		cell := CellText(errs[0])
		t.AddRow("OVERALL", cell, cell, cell)
	} else {
		t.AddRow("OVERALL", "1.000", f3(totZ/totB), fmt.Sprintf("%.1f%%", 100*(1-totZ/totB)))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}

// dirAccesses approximates sparse-directory slice activity: every
// uncore request and eviction notice looks it up; updates ride along.
func dirAccesses(r stats.Run) uint64 {
	return r.Engine.Reads + r.Engine.Writes + r.Engine.Upgrades + r.Engine.Evictions
}

// llcAccesses approximates LLC data-array activity: served hits, fills,
// and writebacks, plus — for ZeroDEV — reads and updates of housed
// directory entries, charged as partial accesses (the entry occupies a
// fraction of the line).
func llcAccesses(r stats.Run) uint64 {
	base := r.Engine.LLCDataHits + r.Engine.LLCMisses + r.Engine.Evictions/2
	if r.Engine.DESpills+r.Engine.DEFuses == 0 {
		return base
	}
	// With entries housed in the LLC, every coherence event reads or
	// rewrites one of them.
	deUpdates := r.Engine.Reads + r.Engine.Writes + r.Engine.Upgrades + r.Engine.Evictions
	return base + uint64(float64(deUpdates)*energy.PartialAccessFactor)
}

func multisocketExp(o Options, w io.Writer) error {
	const sockets = 4
	pre := config.TableI(o.Scale)
	so := o
	so.Accesses = o.Accesses / 2
	t := stats.Table{
		Title:   "Multi-socket (4 x 8 cores): ZeroDEV speedup vs baseline 1x per suite (paper: within ~1.6%)",
		Headers: []string{"suite", "ZDev-NoDir", "ZDev-1/8x", "fwd/NACK/merges (NoDir)"},
	}
	p := socket.DefaultParams(sockets, 65536/so.Scale*8)
	cols := []socketCol{
		{"base", p, pre.Baseline(1, llc.NonInclusive)},
		{"nodir", p, zdev(pre, 0, llc.NonInclusive)},
		{"1-8x", p, zdev(pre, 1.0/8, llc.NonInclusive)},
	}
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
			t.AddRow(suite, cell, cell, cell)
			continue
		}
		var sn, s8 []float64
		var fwds, nacks, merges uint64
		for _, runs := range rows {
			base, zn, z8 := runs[0], runs[1], runs[2]
			sn = append(sn, float64(base.Cycles)/float64(zn.Cycles))
			s8 = append(s8, float64(base.Cycles)/float64(z8.Cycles))
			fwds += zn.Socket.SocketForwards
			nacks += zn.Socket.DENFNacks
			merges += zn.Socket.CorruptedMerges
		}
		t.AddRow(suite, f3(stats.GeoMean(sn)), f3(stats.GeoMean(s8)),
			fmt.Sprintf("%d/%d/%d", fwds, nacks, merges))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}
