package harness

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/stats"
)

// The cross-backend comparative lab: every protocol backend in its
// canonical organization (config.Preset.ForBackend) against the same
// workloads, measured on the axes the backends actually trade —
// performance, forced invalidations (DEVs and inclusion victims),
// NACK/retry latency, DE writeback traffic, and directory occupancy.
// This file sorts after motivation.go, so the experiment registers
// after the paper's figures.

func init() {
	register("figbackends", "Backend lab: protocol backends vs sparse-MESI (dir 1/8x, PARSEC)", figBackends)
}

// backendRatio is the comparative sizing: small enough that bounded
// directories show conflict behavior, matching the paper's 1/8x
// evaluation point.
const backendRatio = 1.0 / 8

func figBackends(o Options, w io.Writer) error {
	ids := o.BackendIDs()
	pre := config.TableI(o.Scale)
	base, err := pre.ForBackend(backend.SparseMESI, backendRatio)
	if err != nil {
		return err
	}
	var cfgs []namedSpec
	for _, id := range ids {
		spec, err := pre.ForBackend(id, backendRatio)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, namedSpec{string(id), spec})
	}
	t := stats.Table{
		Title: "figbackends: protocol backend lab (PARSEC; speedup vs sparsemesi 1/8x; rates per kilo-access)",
		Headers: []string{"backend", "speedup", "DEV/Ka", "inclInv/Ka",
			"NACK/Ka", "WB_DE/Ka", "trafMB", "dirPeak"},
	}
	r := sweepGroup(o, "PARSEC", base, cfgs)
	for ci, c := range cfgs {
		if err := r.err(ci); err != nil {
			t.AddRow(c.name, CellText(err), "-", "-", "-", "-", "-", "-")
			continue
		}
		var devs, incl, nacks, wbde, traffic uint64
		peak := 0
		for ui := range r.units {
			run := r.runs[ci][ui]
			devs += run.Engine.DEVs
			incl += run.Engine.InclusionInvals
			nacks += run.Engine.DirNACKs
			wbde += run.Engine.DEEvictionsToMemory
			traffic += run.Traffic.TotalBytes()
			if run.DirPeak > peak {
				peak = run.DirPeak
			}
		}
		ka := float64(o.Accesses) * float64(pre.Cores) * float64(len(r.units)) / 1000
		perKa := func(n uint64) string { return fmt.Sprintf("%.2f", float64(n)/ka) }
		dirPeak := fmt.Sprint(peak)
		if r.runs[ci][0].DirCap == 0 {
			dirPeak = "n/a" // directoryless: tracking rides the LLC tags
		}
		t.AddRow(c.name, f3(r.geo(ci)), perKa(devs), perKa(incl),
			perKa(nacks), perKa(wbde),
			fmt.Sprintf("%.1f", float64(traffic)/(1<<20)), dirPeak)
	}
	t.Fprint(w)
	return r.failed()
}
