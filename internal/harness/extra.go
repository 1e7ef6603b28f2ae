package harness

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/llc"
	"repro/internal/socket"
	"repro/internal/stats"
	"repro/internal/workload"
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
	p := o.runner()
	type runPair struct {
		base, zd *Future[stats.Run]
	}
	futs := make([][]runPair, len(allSuites))
	for si, suite := range allSuites {
		for _, u := range groupUnits(o, suite) {
			u := u
			futs[si] = append(futs[si], runPair{
				SubmitJob(p, u.name+"/base", func(ctx context.Context) (stats.Run, error) {
					return runStreams(ctx, pre.Baseline(1, llc.NonInclusive), u.make(pre.Cores), "base")
				}),
				SubmitJob(p, u.name+"/zdev", func(ctx context.Context) (stats.Run, error) {
					return runStreams(ctx, zdev(pre, 0, llc.NonInclusive), u.make(pre.Cores), "zdev")
				}),
			})
		}
	}
	var totB, totZ float64
	var errs []error
	for si, suite := range allSuites {
		var eb, ez float64
		var serr error
		for _, pair := range futs[si] {
			base, berr := pair.base.Result()
			zd, zerr := pair.zd.Result()
			if berr != nil || zerr != nil {
				if serr == nil {
					serr = errors.Join(berr, zerr)
				}
				continue
			}
			eb += energy.Estimate(pre.Cores, dirEntries, pre.LLCBytes,
				uint64(base.Cycles), dirAccesses(base), llcAccesses(base)).Total()
			ez += energy.Estimate(pre.Cores, 0, pre.LLCBytes,
				uint64(zd.Cycles), 0, llcAccesses(zd)).Total()
		}
		if serr != nil {
			errs = append(errs, serr)
			cell := CellText(serr)
			t.AddRow(suite, cell, cell, cell)
			continue
		}
		t.AddRow(suite, "1.000", f3(ez/eb), fmt.Sprintf("%.1f%%", 100*(1-ez/eb)))
		totB += eb
		totZ += ez
	}
	t.AddRow("OVERALL", "1.000", f3(totZ/totB), fmt.Sprintf("%.1f%%", 100*(1-totZ/totB)))
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
	p := so.runner()
	futs := make([][][3]*Future[stats.Run], len(mtSuites))
	for si, suite := range mtSuites {
		for _, prof := range suiteApps(so, suite) {
			prof := prof
			submit := func(name string, spec core.SystemSpec) *Future[stats.Run] {
				return SubmitJob(p, prof.Name+"/"+name, func(ctx context.Context) (stats.Run, error) {
					streams := workload.Threads(prof, sockets*spec.Cores, so.Accesses, so.Scale, so.Seed)
					return runSockets(ctx, socket.DefaultParams(sockets, 65536/so.Scale*8), spec, streams, name, false)
				})
			}
			futs[si] = append(futs[si], [3]*Future[stats.Run]{
				submit("base", pre.Baseline(1, llc.NonInclusive)),
				submit("nodir", zdev(pre, 0, llc.NonInclusive)),
				submit("1-8x", zdev(pre, 1.0/8, llc.NonInclusive)),
			})
		}
	}
	var errs []error
	for si, suite := range mtSuites {
		var sn, s8 []float64
		var fwds, nacks, merges uint64
		rowErr := false
		for _, trio := range futs[si] {
			base, e0 := trio[0].Result()
			zn, e1 := trio[1].Result()
			z8, e2 := trio[2].Result()
			for _, e := range []error{e0, e1, e2} {
				if e != nil {
					errs = append(errs, e)
					rowErr = true
				}
			}
			if rowErr {
				continue
			}
			sn = append(sn, float64(base.Cycles)/float64(zn.Cycles))
			s8 = append(s8, float64(base.Cycles)/float64(z8.Cycles))
			fwds += zn.Socket.SocketForwards
			nacks += zn.Socket.DENFNacks
			merges += zn.Socket.CorruptedMerges
		}
		if rowErr {
			cell := CellText(errs[len(errs)-1])
			t.AddRow(suite, cell, cell, cell)
			continue
		}
		t.AddRow(suite, f3(stats.GeoMean(sn)), f3(stats.GeoMean(s8)),
			fmt.Sprintf("%d/%d/%d", fwds, nacks, merges))
	}
	t.Fprint(w)
	return errors.Join(errs...)
}
