// Package config provides the simulated-system presets of the paper's
// Table I (the 8-core socket and the 128-core server socket) and spec
// builders for every directory/LLC organization the evaluation sweeps:
// baseline sparse directories at arbitrary R× sizing, unbounded
// directories, ZeroDEV with each caching policy, SecDir, and MgD.
//
// Every preset takes a power-of-two Scale factor that shrinks all cache
// capacities (and, via workload.scaleDown, the synthetic footprints) so
// the full figure set regenerates quickly; Scale=1 reproduces Table I
// sizes exactly.
package config

import (
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/noc"
)

// ErrTooManyCores is returned by Validate when a preset's core count
// exceeds what the width-parameterized sharer sets can represent.
var ErrTooManyCores = errors.New("config: core count exceeds the representable width")

// ErrBadWays is returned by Validate when a preset's LLC or private-cache
// associativity is outside 1..cache.MaxLRUWays: those caches replace by
// LRU, and an LRU array ranks at most MaxLRUWays ways.
var ErrBadWays = errors.New("config: associativity outside 1..cache.MaxLRUWays")

// Preset is a socket's physical organization.
type Preset struct {
	Name  string
	Cores int
	Scale int

	LLCBytes, LLCWays, LLCBanks int
	CPU                         cpu.Params
	DRAMChannels                int
	DirWays                     int
}

// TableI returns the paper's 8-core socket (Table I) at the given scale.
func TableI(scale int) Preset {
	mustPow2(scale)
	c := cpu.DefaultParams()
	c.L1Bytes = 32 << 10 / scale
	c.L2Bytes = 256 << 10 / scale
	return Preset{
		Name:  "TableI-8core",
		Cores: 8, Scale: scale,
		LLCBytes: 8 << 20 / scale, LLCWays: 16, LLCBanks: 8,
		CPU:          c,
		DRAMChannels: 2,
		DirWays:      8,
	}
}

// Server128 returns the 128-core single-socket server configuration
// (§IV): 32 MB 16-way LLC, 128 KB per-core L2, eight DRAM channels.
func Server128(scale int) Preset {
	mustPow2(scale)
	c := cpu.DefaultParams()
	c.L1Bytes = 32 << 10 / scale
	c.L2Bytes = 128 << 10 / scale
	return Preset{
		Name:  "Server-128core",
		Cores: 128, Scale: scale,
		LLCBytes: 32 << 20 / scale, LLCWays: 16, LLCBanks: 16,
		CPU:          c,
		DRAMChannels: 8,
		DirWays:      8,
	}
}

// wideServer builds an N-core socket with Server128's per-core ratios.
// N must be a power of two so the LLC geometry stays indexable.
func wideServer(cores, scale int) Preset {
	mustPow2(scale)
	mustPow2(cores)
	c := cpu.DefaultParams()
	c.L1Bytes = 32 << 10 / scale
	c.L2Bytes = 128 << 10 / scale
	llcBytes := 32 << 20 / scale * cores / 128
	if llcBytes < 1<<20/scale {
		llcBytes = 1 << 20 / scale
	}
	return Preset{
		Name:  fmt.Sprintf("Server-%dcore", cores),
		Cores: cores, Scale: scale,
		LLCBytes: llcBytes, LLCWays: 16, LLCBanks: 16,
		CPU:          c,
		DRAMChannels: 8,
		DirWays:      8,
	}
}

// Validate rejects a preset whose core count or LRU associativity no
// structure in the system can represent, with a named error so CLI
// layers can build refusal tables instead of panicking deep inside
// CoreSet operations or cache construction.
func (p Preset) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("config: preset %q has %d cores", p.Name, p.Cores)
	}
	if p.Cores > coher.MaxRepresentableCores {
		return fmt.Errorf("%w: preset %q wants %d cores, the sharer-set width caps at %d",
			ErrTooManyCores, p.Name, p.Cores, coher.MaxRepresentableCores)
	}
	for _, c := range [...]struct {
		field string
		ways  int
	}{{"LLCWays", p.LLCWays}, {"CPU.L1Ways", p.CPU.L1Ways}, {"CPU.L2Ways", p.CPU.L2Ways}} {
		if c.ways < 1 || c.ways > cache.MaxLRUWays {
			return fmt.Errorf("%w: preset %q has %s = %d, want 1..%d",
				ErrBadWays, p.Name, c.field, c.ways, cache.MaxLRUWays)
		}
	}
	return nil
}

// Org is a multi-socket organization of the scale frontier: identical
// sockets described by Preset, glued by the socket-level directory,
// with homes distributed hierarchically across HomeGroups groups.
type Org struct {
	Name       string
	Preset     Preset
	Sockets    int
	HomeGroups int
}

// TotalCores is the system-wide core count.
func (g Org) TotalCores() int { return g.Sockets * g.Preset.Cores }

// Validate rejects organizations the socket-level sharer vector cannot
// hold (wrapping coher.ErrTooManySockets, which socket.ErrTooManySockets
// names too), organizations the home-memory segment formats cannot
// represent (wrapping mem.ErrUnrepresentable), and those whose preset
// fails its own validation.
func (g Org) Validate() error {
	if err := g.Preset.Validate(); err != nil {
		return err
	}
	if g.Sockets <= 0 {
		return fmt.Errorf("config: organization %q has %d sockets", g.Name, g.Sockets)
	}
	if g.Sockets > coher.MaxPackedSockets {
		return fmt.Errorf("config: organization %q: %w: %d sockets, at most %d",
			g.Name, coher.ErrTooManySockets, g.Sockets, coher.MaxPackedSockets)
	}
	if g.HomeGroups > 1 && g.Sockets%g.HomeGroups != 0 {
		return fmt.Errorf("config: organization %q: %d home groups do not divide %d sockets",
			g.Name, g.HomeGroups, g.Sockets)
	}
	if _, err := mem.New(g.Sockets, g.Preset.Cores); err != nil {
		return fmt.Errorf("config: organization %q: %w", g.Name, err)
	}
	return nil
}

// MultiSocket builds a scale-frontier organization: totalCores split
// evenly over sockets (each a wideServer-ratio preset), homes grouped
// four sockets to a board once the system has at least eight sockets.
func MultiSocket(totalCores, sockets, scale int) (Org, error) {
	if sockets <= 0 || totalCores <= 0 || totalCores%sockets != 0 {
		return Org{}, fmt.Errorf("config: cannot split %d cores over %d sockets", totalCores, sockets)
	}
	groups := 1
	if sockets >= 8 {
		groups = sockets / 4
	}
	g := Org{
		Name:       fmt.Sprintf("%dc-%ds", totalCores, sockets),
		Preset:     wideServer(totalCores/sockets, scale),
		Sockets:    sockets,
		HomeGroups: groups,
	}
	if err := g.Validate(); err != nil {
		return Org{}, err
	}
	return g, nil
}

// ScaleLadder returns the organizations the figscale experiment sweeps,
// from the classic multi-socket shape up to the 1024-core frontier.
// The 4×256 rung exercises wide per-socket sharer sets (beyond the
// two-word inline representation) and compressed home segments; the
// 16×64 rung is the paper-style 16-socket organization.
func ScaleLadder(scale int) []Org {
	mk := func(cores, sockets int) Org {
		g, err := MultiSocket(cores, sockets, scale)
		if err != nil {
			panic(err)
		}
		return g
	}
	return []Org{
		mk(64, 4),
		mk(128, 4),
		mk(256, 8),
		mk(512, 8),
		mk(1024, 16),
		mk(1024, 4), // 4 × 256-core wide sockets
	}
}

func mustPow2(s int) {
	if s <= 0 || s&(s-1) != 0 {
		panic(fmt.Sprintf("config: scale %d is not a positive power of two", s))
	}
}

// AggregateL2Blocks is the total block count of the private last-level
// core caches — the denominator of the paper's R× directory sizing.
func (p Preset) AggregateL2Blocks() int {
	return p.Cores * p.CPU.L2Bytes / coher.BlockBytes
}

// DirEntries returns the entry count of an R× directory, rounded to a
// power-of-two set count at the preset's directory associativity.
func (p Preset) DirEntries(ratio float64) int {
	e := int(float64(p.AggregateL2Blocks()) * ratio)
	sets := e / p.DirWays
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two (sparse directories are indexed).
	pw := 1
	for pw*2 <= sets {
		pw *= 2
	}
	return pw * p.DirWays
}

// base assembles the spec fields shared by every organization. Its
// backend is sparsemesi; the other backends' organizations override it.
func (p Preset) base(mode llc.Mode, repl llc.Repl) core.SystemSpec {
	return core.SystemSpec{
		Cores:    p.Cores,
		CPU:      p.CPU,
		LLCBytes: p.LLCBytes, LLCWays: p.LLCWays, LLCBanks: p.LLCBanks,
		Mode: mode, Repl: repl,
		Backend: backend.SparseMESI,
		DRAM:    dram.DDR3_2133(p.DRAMChannels),
		NoC:     noc.DefaultParams(),
		Uncore:  core.DefaultParams(p.Cores),
	}
}

// Baseline returns the traditional design, the sparsemesi backend: an
// R×-sized NRU sparse directory whose evictions generate DEVs.
func (p Preset) Baseline(ratio float64, mode llc.Mode) core.SystemSpec {
	s := p.base(mode, llc.LRU)
	entries := p.DirEntries(ratio)
	ways := p.DirWays
	s.Dir = func() directory.Directory { return directory.MustTraditional(entries, ways) }
	return s
}

// Unbounded returns the unlimited-capacity directory used by the
// motivation studies (Figs. 2, 3, 5), with overflow tracking against
// the preset's 1x organization for the Fig. 5 projection.
func (p Preset) Unbounded(mode llc.Mode) core.SystemSpec {
	s := p.base(mode, llc.LRU)
	sets := p.DirEntries(1) / p.DirWays
	ways := p.DirWays
	s.Dir = func() directory.Directory {
		u := directory.NewUnbounded()
		u.SetShadow(sets, ways)
		return u
	}
	return s
}

// ZeroDEV returns the proposal: a replacement-disabled sparse directory
// of the given ratio (0 = no directory at all), a DE caching policy, and
// an extended LLC replacement policy.
func (p Preset) ZeroDEV(ratio float64, pol core.DEPolicy, repl llc.Repl, mode llc.Mode) core.SystemSpec {
	s := p.base(mode, repl)
	s.Backend = backend.ZeroDEV
	s.Policy = pol
	if ratio <= 0 {
		s.Dir = func() directory.Directory { return directory.NoDir{} }
		return s
	}
	entries := p.DirEntries(ratio)
	ways := p.DirWays
	s.Dir = func() directory.Directory { return directory.MustReplacementDisabled(entries, ways) }
	return s
}

// ZeroDEVReplEnabled returns the §III-C4 ablation: ZeroDEV on top of a
// replacement-ENABLED (NRU) sparse directory. Directory victims are
// rehoused in the LLC rather than invalidated, so the zero-DEV
// guarantee still holds, but an entry can disturb both structures
// during its lifetime — the design the paper argues is strictly worse.
func (p Preset) ZeroDEVReplEnabled(ratio float64, pol core.DEPolicy, repl llc.Repl, mode llc.Mode) core.SystemSpec {
	s := p.base(mode, repl)
	s.Backend = backend.ZeroDEV
	s.Policy = pol
	entries := p.DirEntries(ratio)
	ways := p.DirWays
	s.Dir = func() directory.Directory { return directory.MustTraditional(entries, ways) }
	return s
}

// DLS returns the directoryless-shared-LLC backend (arXiv 1206.4753):
// no directory structure at all; tracking rides the LLC tags, which
// forces an inclusive LLC under plain LRU.
func (p Preset) DLS() core.SystemSpec {
	s := p.base(llc.Inclusive, llc.LRU)
	s.Backend = backend.DLS
	s.Dir = func() directory.Directory { return directory.NoDir{} }
	return s
}

// PhasePriority returns the phase-priority directory backend (arXiv
// 1305.3038): a bounded replacement-disabled sparse directory of the
// given ratio whose allocation conflicts are NACKed and retried before
// a prioritized eviction forces the victim out.
func (p Preset) PhasePriority(ratio float64, mode llc.Mode) core.SystemSpec {
	if ratio <= 0 {
		panic("config: the phase-priority backend needs a bounded directory (ratio > 0)")
	}
	s := p.base(mode, llc.LRU)
	s.Backend = backend.PhasePriority
	entries := p.DirEntries(ratio)
	ways := p.DirWays
	s.Dir = func() directory.Directory { return directory.MustReplacementDisabled(entries, ways) }
	return s
}

// ForBackend returns the comparative-lab spec for one protocol backend:
// every bounded directory sized at the same R× ratio, each backend in
// its canonical organization (zerodev: FPSS + dataLRU non-inclusive;
// sparsemesi / phasepriority: NRU resp. replacement-disabled at R×,
// non-inclusive; dls: directoryless inclusive). This is the spec family
// the cross-backend figures sweep.
func (p Preset) ForBackend(id backend.ID, ratio float64) (core.SystemSpec, error) {
	if err := p.Validate(); err != nil {
		return core.SystemSpec{}, err
	}
	switch id {
	case backend.ZeroDEV, "":
		return p.ZeroDEV(ratio, core.FPSS, llc.DataLRU, llc.NonInclusive), nil
	case backend.SparseMESI:
		return p.Baseline(ratio, llc.NonInclusive), nil
	case backend.DLS:
		return p.DLS(), nil
	case backend.PhasePriority:
		return p.PhasePriority(ratio, llc.NonInclusive), nil
	}
	return core.SystemSpec{}, fmt.Errorf("config: %w %q", backend.ErrUnknownBackend, id)
}

// SecDir returns the iso-storage SecDir comparison point (Fig. 27): the
// baseline R× slice is split into a 5/8-associativity shared partition
// and per-core private partitions of 7 ways with 1/16 the sets, per the
// paper's 8-core configuration, scaled with ratio.
func (p Preset) SecDir(ratio float64, mode llc.Mode) core.SystemSpec {
	s := p.base(mode, llc.LRU)
	baseSets := p.DirEntries(ratio) / p.DirWays
	sharedWays := p.DirWays * 5 / 8
	if sharedWays < 1 {
		sharedWays = 1
	}
	privSets := baseSets / 16
	if privSets < 1 {
		privSets = 1
	}
	cores := p.Cores
	s.Dir = func() directory.Directory {
		return directory.MustSecDir(cores, baseSets, sharedWays, privSets, p.DirWays-1)
	}
	return s
}

// MgD returns the Multi-grain Directory comparison point (Fig. 26) with
// the given entry budget ratio.
func (p Preset) MgD(ratio float64, mode llc.Mode) core.SystemSpec {
	s := p.base(mode, llc.LRU)
	entries := p.DirEntries(ratio)
	ways := p.DirWays
	s.Dir = func() directory.Directory { return directory.MustMgD(entries, ways) }
	return s
}
