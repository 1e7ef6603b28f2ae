package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Campaign is one cell of the audit sweep: a protocol backend (with its
// DE-caching policy, for zerodev) crossed with a socket count, run
// against one multithreaded application.
type Campaign struct {
	Name string
	// Backend names the protocol backend; zerodev cells additionally
	// sweep the DE-caching policy axis.
	Backend backend.ID
	Policy  core.DEPolicy
	Sockets int
	App     string
}

// label renders the cell's policy column: the DE-caching policy for
// zerodev cells, "-" for backends without a policy axis.
func (c Campaign) label() string {
	if c.Backend != backend.ZeroDEV {
		return "-"
	}
	return c.Policy.String()
}

// Campaigns lists the default sweep: every ZeroDEV DE-caching policy in
// both single- and four-socket organizations, plus one single-socket
// cell per alternative protocol backend. Each cell runs the requested
// kinds intersected with its backend's applicable set (RunCell), so a
// seam a backend does not have is skipped rather than rolled inertly.
func Campaigns() []Campaign {
	return []Campaign{
		{Name: "spillall-1s", Backend: backend.ZeroDEV, Policy: core.SpillAll, Sockets: 1, App: "canneal"},
		{Name: "fpss-1s", Backend: backend.ZeroDEV, Policy: core.FPSS, Sockets: 1, App: "freqmine"},
		{Name: "fuseall-1s", Backend: backend.ZeroDEV, Policy: core.FuseAll, Sockets: 1, App: "vips"},
		{Name: "spillall-4s", Backend: backend.ZeroDEV, Policy: core.SpillAll, Sockets: 4, App: "lu_ncb"},
		{Name: "fpss-4s", Backend: backend.ZeroDEV, Policy: core.FPSS, Sockets: 4, App: "canneal"},
		{Name: "fuseall-4s", Backend: backend.ZeroDEV, Policy: core.FuseAll, Sockets: 4, App: "ocean_cp"},
		{Name: "sparsemesi-1s", Backend: backend.SparseMESI, Sockets: 1, App: "canneal"},
		{Name: "dls-1s", Backend: backend.DLS, Sockets: 1, App: "vips"},
		{Name: "phasepriority-1s", Backend: backend.PhasePriority, Sockets: 1, App: "freqmine"},
	}
}

// SoakCampaigns lists the chaos-soak grid: every backend crossed with
// single- and four-socket organizations, each cell running its full
// applicable fault mix with online invariant audits. Selected with
// `-campaigns soak`; the CI backend-fault-matrix tier runs it short
// under -race.
func SoakCampaigns() []Campaign {
	apps := []string{"canneal", "freqmine", "vips", "ocean_cp"}
	var out []Campaign
	i := 0
	for _, id := range []backend.ID{backend.ZeroDEV, backend.SparseMESI, backend.DLS, backend.PhasePriority} {
		for _, skts := range []int{1, 4} {
			c := Campaign{
				Name:    fmt.Sprintf("soak-%s-%ds", id, skts),
				Backend: id,
				Sockets: skts,
				App:     apps[i%len(apps)],
			}
			if id == backend.ZeroDEV {
				c.Policy = core.FPSS
			}
			out = append(out, c)
			i++
		}
	}
	return out
}

// FilterByBackend keeps the cells whose backend is in sel.
func FilterByBackend(cells []Campaign, sel []backend.ID) []Campaign {
	want := make(map[backend.ID]bool, len(sel))
	for _, id := range sel {
		want[id] = true
	}
	var out []Campaign
	for _, c := range cells {
		if want[c.Backend] {
			out = append(out, c)
		}
	}
	return out
}

// SelectCampaigns filters the known cells by a comma-separated name
// list: "all" keeps the default grid, "soak" expands to the chaos-soak
// grid, and individual names resolve across both.
func SelectCampaigns(s string) ([]Campaign, error) {
	all := append(Campaigns(), SoakCampaigns()...)
	var out []Campaign
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		switch f {
		case "":
			continue
		case "all":
			out = append(out, Campaigns()...)
			continue
		case "soak":
			out = append(out, SoakCampaigns()...)
			continue
		}
		found := false
		for _, c := range all {
			if c.Name == f {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			var names []string
			for _, c := range all {
				names = append(names, c.Name)
			}
			return nil, fmt.Errorf("faults: unknown campaign %q (known: %s, \"all\", or \"soak\")",
				f, strings.Join(names, ", "))
		}
	}
	return out, nil
}

// Violation captures the first invariant failure of a cell with enough
// context to replay and localize it.
type Violation struct {
	Cell string
	Step uint64
	Now  sim.Cycle
	Err  string
	Seed uint64

	LogTail []Event
	Summary string
}

// Diagnostic renders the violation as a multi-line report.
func (v *Violation) Diagnostic() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INVARIANT VIOLATION in cell %q\n", v.Cell)
	fmt.Fprintf(&b, "  at step %d (cycle %d), replay seed %d\n", v.Step, uint64(v.Now), v.Seed)
	fmt.Fprintf(&b, "  %s\n", v.Err)
	fmt.Fprintf(&b, "  engine state: %s\n", v.Summary)
	fmt.Fprintf(&b, "  fault log tail (%d most recent):\n", len(v.LogTail))
	for _, e := range v.LogTail {
		fmt.Fprintf(&b, "    %s\n", e)
	}
	return b.String()
}

// CellResult is one campaign cell's outcome.
type CellResult struct {
	Campaign Campaign
	Steps    uint64
	Cycles   uint64
	Audits   uint64

	Counts                                  [NumKinds]uint64
	FlipsDetected, FlipsMasked, FlipsSilent uint64
	BrokenInjections                        uint64
	FirstBreakStep                          uint64

	Engine core.Stats

	Violation *Violation
}

// engineSummary compresses the recovery-relevant engine counters for
// the violation diagnostic.
func engineSummary(st core.Stats) string {
	return fmt.Sprintf(
		"quarantines=%d forcedWBDE=%d spuriousInval=%d forcedDEV=%d inclEv=%d forcedEv=%d nackPerturb=%d getDE=%d corruptedFetch=%d lastCopy=%d wbDE=%d",
		st.FaultQuarantinedDEs, st.FaultForcedWBDEs, st.FaultInvalidations,
		st.FaultForcedDEVs, st.FaultInclusionEvs, st.FaultForcedEvs, st.FaultNACKStorms,
		st.GetDEFlows, st.CorruptedFetches, st.LastCopyRetrievals, st.DEEvictionsToMemory)
}

// RunCell executes one campaign cell: it builds the system with the
// injector wired into every seam, drives it with perturbation and
// auditing between scheduler steps, and runs one final audit at
// completion. idx distinguishes the cell's RNG stream within the
// campaign seed. The returned error reflects construction failures and
// cancellation (ctx aborts the drive within sim.CancelEvery steps); an
// invariant violation is reported in CellResult.Violation.
func RunCell(ctx context.Context, cfg Config, c Campaign, o harness.Options, idx uint64) (CellResult, error) {
	// Restrict the requested mix to the kinds this cell's backend can
	// actually fire, so "all" stays meaningful per cell and no injector
	// rolls inertly against a seam the backend does not have.
	cfg.Enabled = Intersect(cfg.Enabled, c.Backend)
	in := NewInjector(cfg, sim.NewRNG(o.Seed).Fork(0xFA+idx))
	spec, err := config.TableI(o.Scale).ForBackend(c.Backend, 1.0/8)
	if err != nil {
		return CellResult{Campaign: c}, err
	}
	spec.Policy = c.Policy
	prof := workload.MustGet(c.App)
	wrap := func(h core.Home) core.Home { return &chaosHome{Home: h, in: in} }

	var (
		tg      targets
		check   func() error
		collect func(sim.Cycle) stats.Run
	)
	if c.Sockets <= 1 {
		spec.WrapHome = wrap
		sys := core.NewSystem(spec, workload.Threads(prof, spec.Cores, o.Accesses, o.Scale, o.Seed))
		tg.engines = []*core.Engine{sys.Engine}
		tg.cores = [][]*cpu.Core{sys.Cores}
		check = sys.Engine.CheckInvariants
		collect = func(last sim.Cycle) stats.Run { return stats.Collect(c.Name, sys, last) }
	} else {
		p := socket.DefaultParams(c.Sockets, 65536/o.Scale*8)
		p.WrapHome = func(_ int, h core.Home) core.Home { return wrap(h) }
		p.Faults = in
		streams := workload.Threads(prof, c.Sockets*spec.Cores, o.Accesses, o.Scale, o.Seed)
		sys, err := socket.New(p, spec, streams)
		if err != nil {
			return CellResult{Campaign: c}, err
		}
		for _, s := range sys.Sockets {
			tg.engines = append(tg.engines, s.Engine)
			tg.cores = append(tg.cores, s.Cores)
		}
		check = sys.CheckInvariants
		collect = func(last sim.Cycle) stats.Run { return stats.CollectSockets(c.Name, sys, last) }
	}
	var agents []sim.Clocked
	for i, eng := range tg.engines {
		eng.SetFaults(in)
		for _, cc := range tg.cores[i] {
			agents = append(agents, cc)
		}
	}

	in.tg = &tg
	res := CellResult{Campaign: c}
	crashAt := uint64(0)
	if cfg.CrashCell == c.Name {
		crashAt = uint64(o.Accesses) // roughly 1/len(agents) through the run
	}
	audit := func(now sim.Cycle) error {
		res.Audits++
		err := check()
		if err != nil && res.Violation == nil {
			res.Violation = &Violation{
				Cell:    c.Name,
				Step:    in.step,
				Now:     now,
				Err:     err.Error(),
				Seed:    o.Seed,
				LogTail: in.LogTail(),
			}
		}
		return err
	}
	hook := func(step uint64, now sim.Cycle) error {
		in.perturb(now)
		if crashAt != 0 && step == crashAt {
			panic(fmt.Sprintf("faults: deliberate crash injected in cell %q at step %d", c.Name, step))
		}
		if cfg.AuditEvery > 0 && step%uint64(cfg.AuditEvery) == 0 {
			return audit(now)
		}
		return nil
	}
	last, err := sim.Drive(agents, sim.ContextHook(ctx, harness.JobSteps(ctx), hook))
	if err == nil {
		audit(last)
	} else if ctx != nil && ctx.Err() != nil {
		// A cancelled (or watchdog-timed-out) cell is interrupted, not
		// violated: propagate the abort so the table renders CANCELLED /
		// TIMEOUT and the cell is never checkpointed as complete.
		return CellResult{Campaign: c}, err
	}

	res.Steps = in.step
	res.Cycles = uint64(last)
	res.Counts = in.Counts()
	res.FlipsDetected, res.FlipsMasked, res.FlipsSilent = in.FlipsDetected, in.FlipsMasked, in.FlipsSilent
	res.BrokenInjections, res.FirstBreakStep = in.BrokenInjections, in.FirstBreakStep
	res.Engine = collect(last).Engine
	if res.Violation != nil {
		res.Violation.Summary = engineSummary(res.Engine)
	}
	return res, nil
}

// Audit returns the campaign over cells as the "audit" experiment. Its
// Run submits one job per cell on the run's pool, in cell order and
// labelled by cell name, then renders the result table and the first
// violation's diagnostic to w, and returns the joined failures (nil
// when every cell completed with zero violations). Output is assembled
// in submission order, so it is byte-identical for every worker count;
// run through Execute, a cell gets the run's crash bundles, watchdog and
// checkpoint, recorded under the "audit" scope.
func Audit(cfg Config, cells []Campaign) harness.Experiment {
	return harness.Experiment{
		ID:    "audit",
		Title: auditTitle,
		Run: func(o harness.Options, w io.Writer) error {
			return runCampaigns(cfg, cells, o, w)
		},
	}
}

const auditTitle = "Fault-injection audit: invariant checks under injected protocol faults"

func runCampaigns(cfg Config, cells []Campaign, o harness.Options, w io.Writer) error {
	t := stats.Table{
		Title: auditTitle,
		Headers: []string{"cell", "backend", "policy", "skts", "app", "steps", "audits",
			"flips d/m/s", "wbde -/+", "nack-", "storm", "spur", "nk/iv/dv/ep", "getde/corr/last", "verdict"},
	}
	futs := make([]*harness.Future[CellResult], len(cells))
	for i, c := range cells {
		futs[i] = harness.SubmitJob(o.Pool(), c.Name, func(ctx context.Context) (CellResult, error) {
			return RunCell(ctx, cfg, c, o, uint64(i))
		})
	}

	var errs []error
	violations, crashed := 0, 0
	var first *Violation
	for i, c := range cells {
		r, err := futs[i].Result()
		if err != nil {
			crashed++
			errs = append(errs, err)
			cell := harness.CellText(err)
			t.AddRow(c.Name, string(c.Backend), c.label(), fmt.Sprint(c.Sockets), c.App,
				cell, cell, cell, cell, cell, cell, cell, cell, cell, cell)
			continue
		}
		verdict := "OK"
		if r.Violation != nil {
			violations++
			verdict = "VIOLATION"
			if first == nil {
				first = r.Violation
			}
			errs = append(errs, fmt.Errorf("faults: cell %s: invariant violation at step %d: %s",
				c.Name, r.Violation.Step, r.Violation.Err))
		}
		cnt := r.Counts
		t.AddRow(c.Name, string(c.Backend), c.label(), fmt.Sprint(c.Sockets), c.App,
			fmt.Sprint(r.Steps), fmt.Sprint(r.Audits),
			fmt.Sprintf("%d/%d/%d", r.FlipsDetected, r.FlipsMasked, r.FlipsSilent),
			fmt.Sprintf("%d/%d", cnt[WBDEDrop], cnt[WBDEDup]),
			fmt.Sprint(cnt[DENFDrop]),
			fmt.Sprint(cnt[EvictStorm]),
			fmt.Sprint(cnt[SpuriousInval]),
			fmt.Sprintf("%d/%d/%d/%d", cnt[NACKStorm], cnt[InclVictim], cnt[DirVictim], cnt[EvictPressure]),
			fmt.Sprintf("%d/%d/%d", r.Engine.GetDEFlows, r.Engine.CorruptedFetches, r.Engine.LastCopyRetrievals),
			verdict)
	}
	t.Fprint(w)
	if first != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, first.Diagnostic())
	}
	fmt.Fprintf(w, "\n[audit: %d cells, %d violations, %d crashed]\n", len(cells), violations, crashed)
	return errors.Join(errs...)
}

// WriteList describes the injectors and campaign cells (the `zerodev
// audit -list` output, pinned by a golden test).
func WriteList(w io.Writer) {
	fmt.Fprintln(w, "Fault injectors (-faults, comma-separated or \"all\"):")
	for _, k := range AllKinds() {
		fmt.Fprintf(w, "  %-10s rate %-5.2g %s\n", k, k.Rate(), kinds[k].desc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Campaign cells (-campaigns, comma-separated or \"all\"; -backend filters):")
	for _, c := range Campaigns() {
		fmt.Fprintf(w, "  %-21s %-13s %-9s x%d socket(s), %s\n",
			c.Name, c.Backend, c.label(), c.Sockets, c.App)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Chaos-soak cells (-campaigns soak; every backend x fault mix x sockets):")
	for _, c := range SoakCampaigns() {
		fmt.Fprintf(w, "  %-21s %-13s %-9s x%d socket(s), %s\n",
			c.Name, c.Backend, c.label(), c.Sockets, c.App)
	}
	fmt.Fprintln(w)
	backend.WriteList(w)
}
