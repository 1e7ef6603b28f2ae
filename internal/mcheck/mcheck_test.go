package mcheck

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func quickCfg(pol core.DEPolicy) Config {
	return Config{Cores: 2, Addrs: 2, Depth: 4, Policy: pol, DirEntries: 0, Workers: 2}
}

// TestExploreCleanAllPolicies proves the zero-violation property over
// every interleaving up to the test depth, for each DE policy, on the
// harshest configuration (no sparse directory: every entry housed in
// the LLC).
func TestExploreCleanAllPolicies(t *testing.T) {
	depth := 4
	if !testing.Short() {
		depth = 6
	}
	for _, pol := range []core.DEPolicy{core.SpillAll, core.FPSS, core.FuseAll} {
		cfg := quickCfg(pol)
		cfg.Depth = depth
		res, err := Explore(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("%s: violation after %q: %s",
				PolicyName(pol), FormatOps(res.Violation.Ops), res.Violation.Err)
		}
		if res.Explored < 100 {
			t.Fatalf("%s: only %d states explored; the alphabet is not driving the engine", PolicyName(pol), res.Explored)
		}
	}
}

// TestExploreDirectoryHousing re-runs with a 1-entry sparse directory,
// which forces the directory-full → LLC-housing handoff (the second
// address can never allocate an on-chip entry).
func TestExploreDirectoryHousing(t *testing.T) {
	cfg := quickCfg(core.FPSS)
	cfg.DirEntries = 1
	res, err := Explore(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation after %q: %s", FormatOps(res.Violation.Ops), res.Violation.Err)
	}
}

// TestExploreDeterministicAcrossWorkers pins the acceptance criterion
// that exploration is byte-identical between one worker and many:
// identical Result (counts, violation) at workers 1, 2, and 8.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	for _, broken := range []bool{false, true} {
		var want *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := quickCfg(core.SpillAll)
			cfg.Broken = broken
			cfg.Workers = workers
			res, err := Explore(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			res.Config.Workers = 0 // normalize the one field allowed to differ
			if want == nil {
				want = &res
				continue
			}
			if !reflect.DeepEqual(*want, res) {
				t.Fatalf("broken=%v: workers=%d diverged:\n  want %+v\n  got  %+v", broken, workers, *want, res)
			}
		}
		if broken && want.Violation == nil {
			t.Fatal("broken variant explored clean")
		}
	}
}

// TestBrokenRecoveryYieldsCounterexample validates the checker against
// a known-bad protocol variant: with live PutDE messages dropped
// (faults.BrokenRecoveryHome), exploration at CI smoke depth must find
// a violation, and minimization must shrink it to a locally minimal
// trace that still replays to the same violation.
func TestBrokenRecoveryYieldsCounterexample(t *testing.T) {
	cfg := quickCfg(core.SpillAll)
	cfg.Broken = true
	cfg.Depth = 6
	res, err := Explore(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation found in the broken variant")
	}
	min := Minimize(cfg, *res.Violation)
	if len(min.Ops) == 0 || len(min.Ops) > len(res.Violation.Ops) {
		t.Fatalf("minimization grew the trace: %d -> %d ops", len(res.Violation.Ops), len(min.Ops))
	}
	// Locally minimal: dropping any single remaining op runs clean.
	for i := range min.Ops {
		candidate := append(append([]Op(nil), min.Ops[:i]...), min.Ops[i+1:]...)
		if v := violates(cfg, candidate); v != nil {
			t.Fatalf("trace not minimal: still violates without op %d (%s)", i, min.Ops[i])
		}
	}
	// The recorded violation is what a replay reproduces.
	got := violates(cfg, min.Ops)
	if got == nil || got.Err != min.Err {
		t.Fatalf("minimized trace does not reproduce its violation: %+v vs %q", got, min.Err)
	}
}

// TestTraceRoundTrip checks the counterexample codec: encode a
// minimized violation, decode it, and replay to the identical
// violation.
func TestTraceRoundTrip(t *testing.T) {
	cfg := quickCfg(core.SpillAll)
	cfg.Broken = true
	cfg.Depth = 6
	res, err := Explore(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation to round-trip")
	}
	min := Minimize(cfg, *res.Violation)

	var buf bytes.Buffer
	if err := NewTrace(cfg, min).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Err != min.Err {
		t.Fatalf("replayed violation %q, want %q", v.Err, min.Err)
	}
}

// TestDecodeTraceRejects covers the codec's validation paths.
func TestDecodeTraceRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "not json", "not a counterexample trace"},
		{"version", `{"version":99,"cores":2,"addrs":2,"policy":"fpss","ops":[],"violation":"x"}`, "trace version 99, this build reads 1"},
		{"unknown-field", `{"version":1,"cores":2,"addrs":2,"policy":"fpss","ops":[],"violation":"x","extra":1}`, "decoding trace"},
		{"policy", `{"version":1,"cores":2,"addrs":2,"policy":"zesty","ops":[],"violation":"x"}`, "unknown DE policy"},
		{"op-kind", `{"version":1,"cores":2,"addrs":2,"policy":"fpss","ops":[{"op":"teleport","addr":0}],"violation":"x"}`, "unknown op kind"},
		{"core-range", `{"version":1,"cores":2,"addrs":2,"policy":"fpss","ops":[{"op":"read","core":7,"addr":0}],"violation":"x"}`, "out of range"},
		{"addr-range", `{"version":1,"cores":2,"addrs":2,"policy":"fpss","ops":[{"op":"read","core":0,"addr":3}],"violation":"x"}`, "out of range"},
		{"cores-range", `{"version":1,"cores":9,"addrs":2,"policy":"fpss","ops":[],"violation":"x"}`, "cores must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestConfigValidate covers the config envelope.
func TestConfigValidate(t *testing.T) {
	good := quickCfg(core.FPSS)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Cores: 1, Addrs: 2, Depth: 4, Policy: core.FPSS, Workers: 1},
		{Cores: 2, Addrs: 0, Depth: 4, Policy: core.FPSS, Workers: 1},
		{Cores: 2, Addrs: 2, Depth: 0, Policy: core.FPSS, Workers: 1},
		{Cores: 2, Addrs: 2, Depth: 4, Policy: core.FPSS, Workers: 0},
		{Cores: 2, Addrs: 2, Depth: 4, Policy: core.DEPolicy(42), Workers: 1},
		{Cores: 2, Addrs: 2, Depth: 4, Policy: core.FPSS, DirEntries: -1, Workers: 1},
		{Cores: 2, Addrs: 2, Depth: 4, Policy: core.FPSS, Workers: 1, JobTimeout: -time.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

// TestFingerprintExcludesTiming: two different op orders that converge
// on the same protocol state must fingerprint identically even though
// their clocks differ — this is what makes dedup across interleavings
// sound (and effective).
func TestFingerprintExcludesTiming(t *testing.T) {
	cfg := quickCfg(core.SpillAll)
	// Same multiset of reads, both ending with the same recency order
	// (core0's read of a0 last in both), different interleaving of the
	// independent a1 access so the clocks differ.
	a := replay(cfg, []Op{
		{Kind: OpRead, Core: 1, Addr: 1},
		{Kind: OpRead, Core: 0, Addr: 0},
	})
	b := replay(cfg, []Op{
		{Kind: OpRead, Core: 1, Addr: 1},
		{Kind: OpRead, Core: 1, Addr: 1},
		{Kind: OpRead, Core: 0, Addr: 0},
	})
	fpA, _ := a.fingerprint(nil)
	fpB, _ := b.fingerprint(nil)
	if fpA != fpB {
		t.Fatal("states that differ only in timing/recency-equivalent history fingerprint differently")
	}
	// And a state with different protocol content must differ.
	c := replay(cfg, []Op{{Kind: OpWrite, Core: 0, Addr: 0}})
	fpC, _ := c.fingerprint(nil)
	if fpC == fpA {
		t.Fatal("distinct protocol states share a fingerprint")
	}
}
