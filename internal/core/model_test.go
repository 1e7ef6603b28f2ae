package core_test

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Model checking (lite): on a deliberately tiny system — single-set
// private caches and a single-set four-way LLC, so every operation can
// trigger evictions, spills, WB_DEs, and corrupted-block recoveries —
// exhaustively enumerate every sequence of (core, address, op) steps up
// to a fixed depth and check the full invariant set after every single
// step. The engine is deterministic, so the op sequence fully
// determines the reachable state; this covers every protocol
// interleaving the synchronous model can express at this depth.

// tinySpec builds the smallest legal system: 2-way single-set L1/L2,
// one LLC bank with one 4-way set.
func tinySpec(dir func() directory.Directory, zerodev bool, pol core.DEPolicy, repl llc.Repl, mode llc.Mode) core.SystemSpec {
	id := backend.SparseMESI
	if zerodev {
		id = backend.ZeroDEV
	}
	return core.SystemSpec{
		Cores: 2,
		CPU: cpu.Params{
			L1Bytes: 2 * 64, L1Ways: 2,
			L2Bytes: 2 * 64, L2Ways: 2,
			IssueWidth:  4,
			L1HitCycles: 1, L2HitCycles: 10,
			LoadMLP: 2, StoreMLP: 4,
		},
		LLCBytes: 4 * 64, LLCWays: 4, LLCBanks: 1,
		Mode: mode, Repl: repl,
		Dir:     dir,
		Backend: id,
		Policy:  pol,
		DRAM:    dram.DDR3_2133(1),
		NoC:     noc.DefaultParams(),
		Uncore:  core.DefaultParams(2),
	}
}

type modelOp struct {
	core  int
	store bool
	addr  coher.Addr
}

// runModelSequence replays one op sequence, checking invariants after
// every step; it returns an error describing the failing prefix.
func runModelSequence(spec core.SystemSpec, ops []modelOp) error {
	sys, scripts := microSystem(spec)
	for i, op := range ops {
		if op.store {
			scripts[op.core].store(op.addr)
		} else {
			scripts[op.core].load(op.addr)
		}
		sys.Cores[op.core].Step()
		if err := sys.Engine.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d (%+v): %w", i, ops[:i+1], err)
		}
		if spec.Backend == backend.ZeroDEV && sys.Engine.Stats().DEVs != 0 {
			return fmt.Errorf("step %d (%+v): DEVs under ZeroDEV", i, ops[:i+1])
		}
	}
	return nil
}

func modelConfigs() map[string]core.SystemSpec {
	return map[string]core.SystemSpec{
		"baseline-tinydir": tinySpec(func() directory.Directory {
			return directory.MustTraditional(2, 2) // one 2-way set: constant conflicts
		}, false, 0, llc.LRU, llc.NonInclusive),
		"zerodev-fpss-nodir": tinySpec(func() directory.Directory {
			return directory.NoDir{}
		}, true, core.FPSS, llc.DataLRU, llc.NonInclusive),
		"zerodev-fuseall-lru": tinySpec(func() directory.Directory {
			return directory.NoDir{}
		}, true, core.FuseAll, llc.LRU, llc.NonInclusive),
		"zerodev-spillall-incl": tinySpec(func() directory.Directory {
			return directory.NoDir{}
		}, true, core.SpillAll, llc.DataLRU, llc.Inclusive),
	}
}

// TestModelExhaustive enumerates all 8^depth sequences over the alphabet
// {core0,core1} x {A,B} x {load,store} with addresses chosen to collide
// in every structure.
func TestModelExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// A and B map to the same (single) L2 set and the same LLC set; C
	// extends pressure past the LLC ways in the random test below.
	addrs := []coher.Addr{0x40, 0x42}
	var alphabet []modelOp
	for c := 0; c < 2; c++ {
		for _, a := range addrs {
			alphabet = append(alphabet, modelOp{c, false, a}, modelOp{c, true, a})
		}
	}
	const depth = 5
	for name, spec := range modelConfigs() {
		t.Run(name, func(t *testing.T) {
			n := len(alphabet)
			total := 1
			for i := 0; i < depth; i++ {
				total *= n
			}
			for seq := 0; seq < total; seq++ {
				ops := make([]modelOp, depth)
				v := seq
				for i := range ops {
					ops[i] = alphabet[v%n]
					v /= n
				}
				if err := runModelSequence(spec, ops); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("checked %d sequences of depth %d", total, depth)
		})
	}
}

// TestModelRandomDeep samples long random sequences over a wider
// address alphabet (enough distinct blocks to overflow the tiny LLC and
// force DE evictions to memory under ZeroDEV).
func TestModelRandomDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rng := sim.NewRNG(0xC0FFEE)
	addrs := []coher.Addr{0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47}
	const depth, trials = 24, 300
	for name, spec := range modelConfigs() {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				ops := make([]modelOp, depth)
				for i := range ops {
					ops[i] = modelOp{
						core:  rng.Intn(2),
						store: rng.Bool(0.4),
						addr:  addrs[rng.Intn(len(addrs))],
					}
				}
				if err := runModelSequence(spec, ops); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
