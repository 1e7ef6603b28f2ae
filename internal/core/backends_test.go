package core_test

import (
	"bytes"
	"testing"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/workload"
)

// The two aliases that name one backend two ways must assemble
// indistinguishable engines — same stats, same canonical state bytes:
// the empty backend ID is zerodev, and the Baseline preset is
// sparsemesi.
func TestBackendTagsAliasLegacySpecs(t *testing.T) {
	pre := config.TableI(testScale)
	prof := workload.MustGet("canneal")

	zspec := pre.ZeroDEV(1.0/8, core.FPSS, llc.DataLRU, llc.NonInclusive)
	if zspec.Backend != backend.ZeroDEV {
		t.Fatalf("ZeroDEV preset tagged %q", zspec.Backend)
	}
	ztagged := runChecked(t, zspec, prof, true)
	zspec.Backend = ""
	zempty := runChecked(t, zspec, prof, true)
	if *zempty.Engine.Stats() != *ztagged.Engine.Stats() {
		t.Fatalf("empty backend ID diverged from zerodev:\n%+v\nvs\n%+v",
			*zempty.Engine.Stats(), *ztagged.Engine.Stats())
	}
	if !bytes.Equal(zempty.AppendState(nil), ztagged.AppendState(nil)) {
		t.Fatal("empty backend ID produced different canonical state than zerodev")
	}

	base := pre.Baseline(1.0/8, llc.NonInclusive)
	mesi, err := pre.ForBackend(backend.SparseMESI, 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if base.Backend != backend.SparseMESI || mesi.Backend != backend.SparseMESI {
		t.Fatalf("Baseline tagged %q, ForBackend(sparsemesi) tagged %q", base.Backend, mesi.Backend)
	}
	legacy := runChecked(t, base, prof, true)
	tagged := runChecked(t, mesi, prof, true)
	if *legacy.Engine.Stats() != *tagged.Engine.Stats() {
		t.Fatalf("sparsemesi diverged from the Baseline preset:\n%+v\nvs\n%+v",
			*legacy.Engine.Stats(), *tagged.Engine.Stats())
	}
	if !bytes.Equal(legacy.AppendState(nil), tagged.AppendState(nil)) {
		t.Fatal("sparsemesi produced different canonical state than the Baseline preset")
	}
}

func TestDLSBackend(t *testing.T) {
	pre := config.TableI(testScale)
	sys := runChecked(t, pre.DLS(), workload.MustGet("freqmine"), true)
	st := sys.Engine.Stats()
	if st.DEVs != 0 {
		t.Fatalf("%d DEVs under DLS; directoryless tracking cannot victimize entries", st.DEVs)
	}
	if st.DEFuses == 0 {
		t.Fatal("DLS tracked no blocks in the LLC tags")
	}
	if st.DESpills != 0 {
		t.Fatalf("DLS spilled %d entries; tracking must ride the block's own line", st.DESpills)
	}
	if st.InclusionInvals == 0 {
		t.Fatal("expected inclusion victims: the DLS cost model is forced inclusion")
	}
	if st.DEEvictionsToMemory != 0 {
		t.Fatalf("DLS wrote %d entries to home memory; it has no WB_DE flow", st.DEEvictionsToMemory)
	}
	// Every fill forced by tracking shows up in the residency-tax counter.
	t.Logf("DLS residency fills: %d, inclusion invals: %d", st.DLSLineFills, st.InclusionInvals)
}

func TestPhasePriorityBackend(t *testing.T) {
	pre := config.TableI(testScale)
	sys := runChecked(t, pre.PhasePriority(1.0/32, llc.NonInclusive), workload.MustGet("canneal"), true)
	st := sys.Engine.Stats()
	if st.DirNACKs == 0 {
		t.Fatal("a 1/32x phase-priority directory under canneal produced no NACKs")
	}
	if st.DirRetries == 0 {
		t.Fatal("NACKed allocations charged no retries")
	}
	if st.PhaseEscalations == 0 {
		t.Fatal("no conflict escalated; the retry ladder must end in a prioritized eviction")
	}
	if st.DEVs == 0 {
		t.Fatal("escalations produced no DEVs; phase-priority trades latency for DEVs, not away")
	}
	// Escalations are the backend's only DEV source: every DEV batch
	// traces to exactly one escalated victim entry.
	if st.DEVs < st.PhaseEscalations {
		t.Fatalf("%d DEVs from %d escalations; each escalation victimizes at least one copy",
			st.DEVs, st.PhaseEscalations)
	}
}

// Sizing the phase-priority directory up must reduce conflicts: the
// NACK/escalation ladder is a function of set pressure, so a 4x
// structure sees strictly fewer escalations than a 1/32x one (single
// stray set conflicts can survive any finite sizing, so the contract
// is monotonicity, not silence).
func TestPhasePrioritySizingReducesConflicts(t *testing.T) {
	pre := config.TableI(testScale)
	prof := workload.MustGet("canneal")
	small := runChecked(t, pre.PhasePriority(1.0/32, llc.NonInclusive), prof, true).Engine.Stats()
	large := runChecked(t, pre.PhasePriority(4.0, llc.NonInclusive), prof, true).Engine.Stats()
	if large.PhaseEscalations >= small.PhaseEscalations {
		t.Fatalf("4x directory escalated %d times vs %d at 1/32x; sizing must relieve conflicts",
			large.PhaseEscalations, small.PhaseEscalations)
	}
	if large.DEVs >= small.DEVs {
		t.Fatalf("4x directory produced %d DEVs vs %d at 1/32x", large.DEVs, small.DEVs)
	}
}
