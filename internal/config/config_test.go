package config

import (
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/llc"
)

// TestTableIPreset pins the preset to the paper's Table I at scale 1.
func TestTableIPreset(t *testing.T) {
	p := TableI(1)
	if p.Cores != 8 {
		t.Fatalf("cores = %d", p.Cores)
	}
	if p.LLCBytes != 8<<20 || p.LLCWays != 16 || p.LLCBanks != 8 {
		t.Fatalf("LLC = %d/%d/%d", p.LLCBytes, p.LLCWays, p.LLCBanks)
	}
	if p.CPU.L2Bytes != 256<<10 || p.CPU.L1Bytes != 32<<10 {
		t.Fatalf("private caches = %d/%d", p.CPU.L2Bytes, p.CPU.L1Bytes)
	}
	if p.DRAMChannels != 2 || p.DirWays != 8 {
		t.Fatalf("dram=%d dirways=%d", p.DRAMChannels, p.DirWays)
	}
	// 1x sizing: one directory entry per aggregate private L2 block.
	if got := p.AggregateL2Blocks(); got != 32768 {
		t.Fatalf("aggregate L2 blocks = %d", got)
	}
	if got := p.DirEntries(1); got != 32768 {
		t.Fatalf("1x entries = %d", got)
	}
	if got := p.DirEntries(1.0 / 8); got != 4096 {
		t.Fatalf("1/8x entries = %d", got)
	}
	// The paper's observation (§III-B): a 1x directory holds entries for
	// 25% of the LLC blocks (4:1 LLC:aggregate-L2 capacity ratio).
	if p.DirEntries(1)*4 != p.LLCBytes/64 {
		t.Fatalf("1x directory is not 25%% of LLC blocks")
	}
}

func TestServer128Preset(t *testing.T) {
	p := Server128(1)
	if p.Cores != 128 || p.LLCBytes != 32<<20 || p.CPU.L2Bytes != 128<<10 || p.DRAMChannels != 8 {
		t.Fatalf("preset = %+v", p)
	}
}

func TestSpecBuilders(t *testing.T) {
	p := TableI(8)
	specs := map[string]core.SystemSpec{
		"baseline":  p.Baseline(1, llc.NonInclusive),
		"unbounded": p.Unbounded(llc.NonInclusive),
		"zerodev":   p.ZeroDEV(1.0/8, core.FPSS, llc.DataLRU, llc.NonInclusive),
		"nodir":     p.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive),
		"secdir":    p.SecDir(1, llc.NonInclusive),
		"mgd":       p.MgD(1.0/8, llc.NonInclusive),
	}
	for name, s := range specs {
		d := s.Dir()
		if d == nil {
			t.Fatalf("%s: nil directory", name)
		}
		if name == "nodir" {
			if _, ok := d.(directory.NoDir); !ok {
				t.Fatalf("nodir built %T", d)
			}
		}
		if s.Cores != 8 || s.LLCBytes != 1<<20 {
			t.Fatalf("%s: spec fields wrong: %+v", name, s)
		}
	}
	if specs["zerodev"].Backend != backend.ZeroDEV || specs["baseline"].Backend != backend.SparseMESI {
		t.Fatal("backend tags wrong")
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two scale must panic")
		}
	}()
	TableI(3)
}

// TestValidateRefusesUnrankableWays is the associativity refusal table:
// the LLC and both private caches replace by LRU, so each must have
// 1..cache.MaxLRUWays ways, and Validate names the violation before any
// cache is built.
func TestValidateRefusesUnrankableWays(t *testing.T) {
	fields := map[string]func(*Preset, int){
		"LLCWays":    func(p *Preset, w int) { p.LLCWays = w },
		"CPU.L1Ways": func(p *Preset, w int) { p.CPU.L1Ways = w },
		"CPU.L2Ways": func(p *Preset, w int) { p.CPU.L2Ways = w },
	}
	for name, set := range fields {
		for _, tc := range []struct {
			ways int
			ok   bool
		}{{0, false}, {1, true}, {64, true}, {65, false}} {
			p := TableI(8)
			set(&p, tc.ways)
			err := p.Validate()
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrBadWays)) {
				t.Fatalf("%s = %d: Validate() = %v, want ok = %v or ErrBadWays", name, tc.ways, err, tc.ok)
			}
		}
	}
	if err := TableI(8).Validate(); err != nil {
		t.Fatalf("Table I preset refused: %v", err)
	}
}

// TestValidateRefusesUnbuildableGeometry is the scale refusal table:
// each preset divides its cache capacities by the scale, so past the
// largest scale it supports a cache holds fewer blocks than it has
// ways, and Validate names the cache before any is built.
func TestValidateRefusesUnbuildableGeometry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		preset func(int) Preset
		scale  int
		ok     bool
	}{
		{"TableI", TableI, 64, true},
		{"TableI", TableI, 128, false},
		{"Server128", Server128, 64, true},
		{"Server128", Server128, 128, false},
	} {
		err := tc.preset(tc.scale).Validate()
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrBadGeometry)) {
			t.Errorf("%s(%d).Validate() = %v, want ok = %v or ErrBadGeometry", tc.name, tc.scale, err, tc.ok)
		}
	}
}
