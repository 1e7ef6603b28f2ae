package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// tinyOptions shrinks the campaigns to unit-test cost while keeping
// every injector and recovery flow active.
func tinyOptions() harness.Options {
	return harness.Options{Scale: 32, Accesses: 1500, Seed: 1, Workers: 1}
}

// TestCellSurvivesFullFaultMix is the tentpole acceptance check in
// miniature: a cell with every injector enabled completes with zero
// invariant violations, and the fault pressure demonstrably forced the
// paper's recovery flows to fire (quarantines, GET_DE, corrupted-block
// fetches) rather than never exercising them.
func TestCellSurvivesFullFaultMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AuditEvery = 250
	for _, cell := range []Campaign{Campaigns()[0], Campaigns()[4]} { // spillall-1s, fpss-4s
		res, err := RunCell(context.Background(), cfg, cell, tinyOptions(), 0)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name, err)
		}
		if res.Violation != nil {
			t.Fatalf("%s: unexpected violation:\n%s", cell.Name, res.Violation.Diagnostic())
		}
		if res.Audits == 0 {
			t.Fatalf("%s: auditor never ran", cell.Name)
		}
		cnt := res.Counts
		if cnt[DEFlip] == 0 || cnt[WBDEDrop] == 0 || cnt[WBDEDup] == 0 ||
			cnt[EvictStorm] == 0 || cnt[SpuriousInval] == 0 {
			t.Fatalf("%s: some injectors never fired: %v", cell.Name, cnt)
		}
		st := res.Engine
		if st.FaultQuarantinedDEs == 0 || st.GetDEFlows == 0 || st.CorruptedFetches == 0 {
			t.Fatalf("%s: recovery flows did not fire: quarantines=%d getDE=%d corrupted=%d",
				cell.Name, st.FaultQuarantinedDEs, st.GetDEFlows, st.CorruptedFetches)
		}
		if cell.Sockets > 1 && cnt[DENFDrop] == 0 {
			t.Fatalf("%s: multi-socket cell never dropped a NACK", cell.Name)
		}
	}
}

// TestCampaignOutputDeterministic proves the byte-determinism
// guarantee: the full campaign report is identical for a fixed seed at
// any worker count.
func TestCampaignOutputDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AuditEvery = 300
	cells := []Campaign{Campaigns()[0], Campaigns()[5]} // spillall-1s, fuseall-4s
	o := tinyOptions()
	o.Accesses = 800
	var serial, parallel bytes.Buffer
	o.Workers = 1
	if _, err := Audit(cfg, cells).Execute(context.Background(), o, &serial); err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	if _, err := Audit(cfg, cells).Execute(context.Background(), o, &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("output differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestBrokenRecoveryCaughtWithinOneInterval is the auditor self-test:
// with the corrupted-entry recovery path deliberately broken (live
// PutDE messages silently dropped), the online auditor must flag the
// resulting stale home-memory entry within one audit interval of the
// first break.
func TestBrokenRecoveryCaughtWithinOneInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BreakKind = "wbde-drop"
	cfg.AuditEvery = 1
	cfg.RateScale = 2
	res, err := RunCell(context.Background(), cfg, Campaigns()[0], tinyOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrokenInjections == 0 {
		t.Fatal("the broken recovery path never triggered; the self-test exercised nothing")
	}
	if res.Violation == nil {
		t.Fatalf("auditor missed the broken recovery path (%d live PutDEs dropped, first at step %d)",
			res.BrokenInjections, res.FirstBreakStep)
	}
	v := res.Violation
	if v.Step < res.FirstBreakStep || v.Step-res.FirstBreakStep > uint64(cfg.AuditEvery) {
		t.Fatalf("violation at step %d, first break at step %d: not within one audit interval (%d)",
			v.Step, res.FirstBreakStep, cfg.AuditEvery)
	}
	diag := v.Diagnostic()
	for _, want := range []string{"INVARIANT VIOLATION", "replay seed 1", "fault log tail", "engine state"} {
		if !strings.Contains(diag, want) {
			t.Fatalf("diagnostic missing %q:\n%s", want, diag)
		}
	}
}

// TestCrashCellYieldsBundleAndErr pins the crash-resilience contract
// end to end: a cell that panics mid-campaign renders as ERR, writes a
// replay bundle under the crash directory, and fails the campaign —
// without disturbing its sibling cell.
func TestCrashCellYieldsBundleAndErr(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AuditEvery = 300
	cfg.CrashCell = "spillall-1s"
	cells := []Campaign{Campaigns()[0], Campaigns()[1]} // crash + healthy sibling
	o := tinyOptions()
	o.Accesses = 800
	o.CrashDir = t.TempDir()
	var buf bytes.Buffer
	_, err := Audit(cfg, cells).Execute(context.Background(), o, &buf)
	if err == nil {
		t.Fatal("campaign with a crashed cell returned nil error")
	}
	if !strings.Contains(err.Error(), "deliberate crash") {
		t.Fatalf("error does not surface the panic: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "ERR") {
		t.Fatalf("crashed cell not rendered as ERR:\n%s", out)
	}
	if !strings.Contains(out, "1 crashed") {
		t.Fatalf("summary line does not count the crash:\n%s", out)
	}
	if !strings.Contains(out, "fpss-1s") || !strings.Contains(out, "OK") {
		t.Fatalf("healthy sibling cell missing from report:\n%s", out)
	}
	bundles, err2 := filepath.Glob(filepath.Join(o.CrashDir, "audit_spillall-1s_j*.json"))
	if err2 != nil || len(bundles) == 0 {
		t.Fatalf("no replay bundle written under %s (glob err %v)", o.CrashDir, err2)
	}
	raw, err2 := os.ReadFile(bundles[len(bundles)-1])
	if err2 != nil {
		t.Fatal(err2)
	}
	var bundle struct {
		Experiment string `json:"experiment"`
		Unit       string `json:"unit"`
		Seed       uint64 `json:"seed"`
		Panic      string `json:"panic"`
		Stack      string `json:"stack"`
	}
	if err2 := json.Unmarshal(raw, &bundle); err2 != nil {
		t.Fatalf("bundle is not valid JSON: %v", err2)
	}
	if bundle.Experiment != "audit" || bundle.Unit != "spillall-1s" || bundle.Seed != 1 ||
		!strings.Contains(bundle.Panic, "deliberate crash") || bundle.Stack == "" {
		t.Fatalf("bundle missing replay fields: %+v", bundle)
	}
}

// TestParseKindsAndCampaigns covers the CLI-facing selectors.
func TestParseKindsAndCampaigns(t *testing.T) {
	mask, err := ParseKinds("deflip, storm")
	if err != nil {
		t.Fatal(err)
	}
	if !mask[DEFlip] || !mask[EvictStorm] || mask[WBDEDrop] || mask[DENFDrop] {
		t.Fatalf("bad mask: %v", mask)
	}
	if _, err := ParseKinds("nope"); err == nil || !strings.Contains(err.Error(), "unknown injector") {
		t.Fatalf("bad kind accepted: %v", err)
	}
	all, err := ParseKinds("all")
	if err != nil {
		t.Fatal(err)
	}
	for k, on := range all {
		if !on {
			t.Fatalf("kind %v not enabled by \"all\"", Kind(k))
		}
	}
	cs, err := SelectCampaigns("fpss-4s,spillall-1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "fpss-4s" || cs[1].Name != "spillall-1s" {
		t.Fatalf("bad selection: %+v", cs)
	}
	if _, err := SelectCampaigns("bogus"); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Fatalf("bad campaign accepted: %v", err)
	}
}
