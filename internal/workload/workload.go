// Package workload synthesizes memory-reference streams that stand in
// for the paper's benchmark suites (PARSEC, SPLASH2X, SPEC OMP, FFTW,
// SPEC CPU 2017 rate/heterogeneous, and the 128-core server workloads).
// Real traces are unavailable (repro note in DESIGN.md), so each
// application is described by a Profile fitted to the three axes that
// drive directory-eviction-victim behaviour:
//
//  1. live private footprint vs directory reach (DEV pressure),
//  2. sharing mix — fraction shared, write intensity, migratory
//     ownership bouncing (fused vs spilled split, forward rates),
//  3. reuse distance vs LLC capacity (sensitivity to LLC ways lost to
//     spilled entries).
//
// Streams are deterministic functions of (profile, seed); identical
// configurations replay identical simulations.
package workload

import (
	"repro/internal/coher"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Profile is a synthetic application description. Footprints are in
// 64-byte blocks at scale 1 (Table I sizing: 8 MB LLC, 256 KB L2).
type Profile struct {
	Name  string
	Suite string

	// PrivateBlocks is each thread's private data footprint.
	PrivateBlocks int
	// SharedBlocks is the process-wide shared data footprint.
	SharedBlocks int
	// CodeBlocks is the code footprint (always cached in S state).
	CodeBlocks int

	// SharedFrac is the fraction of data accesses to the shared region.
	SharedFrac float64
	// WriteFrac is the store fraction within private accesses.
	WriteFrac float64
	// SharedWriteFrac is the store fraction within shared accesses.
	SharedWriteFrac float64
	// Migratory is the fraction of shared accesses that follow a
	// read-modify-write pattern on a hot set, bouncing M ownership
	// between cores (freqmine-like behaviour).
	Migratory float64
	// Streaming is the fraction of private accesses that walk
	// sequentially with little reuse.
	Streaming float64

	// PrivateSkew, SharedSkew, CodeSkew are Zipf skews for block
	// selection (0 = uniform; larger = hotter subsets, shorter reuse
	// distance).
	PrivateSkew, SharedSkew, CodeSkew float64

	// IfetchFrac is the fraction of accesses that are instruction
	// fetches.
	IfetchFrac float64
	// GapMean is the mean number of non-memory instructions between
	// accesses.
	GapMean int
}

// regions of a process's address space. Bases are block addresses; each
// process occupies a disjoint 2^34-block area so workloads never alias.
const (
	processStride = 1 << 34
	codeOffset    = 0
	sharedOffset  = 1 << 30
	privateOffset = 2 << 30
	threadStride  = 1 << 24
)

// scaleDown shrinks a footprint by the configuration scale factor,
// keeping a floor so tiny scaled runs still exercise every region.
func scaleDown(blocks, scale int) int {
	v := blocks / scale
	if v < 16 {
		v = 16
	}
	return v
}

// gen is one thread's deterministic stream generator.
type gen struct {
	p       Profile
	rng     *sim.RNG
	left    int
	codeB   coher.Addr
	sharedB coher.Addr
	privB   coher.Addr

	codeN, sharedN, privN int
	// rotations decorrelate the set-index footprint of different
	// regions/processes/threads: without them every region starts at a
	// base with identical low-order bits, so the hot (low Zipf index)
	// blocks of all threads alias onto the same directory and LLC sets,
	// which real address-space layouts do not do.
	codeRot, sharedRot, privRot int
	seqPtr                      int // streaming walk pointer

	// Zipf samplers for the four fixed shapes this thread draws from
	// (see shapes).
	zCode, zShared, zMig, zPriv sim.ZipfGen

	queued    cpu.Access
	hasQueued bool
}

// Shape is the (n, skew) pair of one Zipf sampler: it draws block
// indices in [0, N) with skew Skew.
type Shape struct {
	N    int
	Skew float64
}

// shapes returns the samplers a thread of p draws from at scale: the
// code, shared and private regions, and the migratory hot set, the
// first sharedN/32 blocks of the shared region (8 at least).
func shapes(p Profile, scale int) (code, shared, mig, priv Shape) {
	code = Shape{scaleDown(p.CodeBlocks, scale), p.CodeSkew}
	shared = Shape{scaleDown(p.SharedBlocks, scale), p.SharedSkew}
	priv = Shape{scaleDown(p.PrivateBlocks, scale), p.PrivateSkew}
	mig = Shape{min(max(shared.N/32, 8), shared.N), 0.5}
	return code, shared, mig, priv
}

// Shapes returns every distinct shape the catalog's streams draw from at
// scale, in catalog order.
func Shapes(scale int) []Shape {
	seen := map[Shape]bool{}
	var out []Shape
	for _, p := range All() {
		code, shared, mig, priv := shapes(p, scale)
		for _, sh := range []Shape{code, shared, mig, priv} {
			if !seen[sh] {
				seen[sh] = true
				out = append(out, sh)
			}
		}
	}
	return out
}

// newGen builds the generator for thread `thread` of process `proc`.
func newGen(p Profile, proc, thread, accesses, scale int, rng *sim.RNG) *gen {
	base := coher.Addr((proc + 1) * processStride)
	code, shared, mig, priv := shapes(p, scale)
	g := &gen{
		p:       p,
		rng:     rng,
		left:    accesses,
		codeB:   base + codeOffset,
		sharedB: base + sharedOffset,
		privB:   base + privateOffset + coher.Addr(thread*threadStride),
		codeN:   code.N,
		sharedN: shared.N,
		privN:   priv.N,
		zCode:   sim.NewZipfGen(code.N, code.Skew),
		zShared: sim.NewZipfGen(shared.N, shared.Skew),
		zMig:    sim.NewZipfGen(mig.N, mig.Skew),
		zPriv:   sim.NewZipfGen(priv.N, priv.Skew),
	}
	// Region rotations must agree between threads of one process for the
	// regions they share, so they derive from (profile, process) alone.
	procH := hashName(p.Name) ^ (uint64(proc)+1)*0x9e3779b97f4a7c15
	g.codeRot = int(procH % uint64(g.codeN))
	g.sharedRot = int((procH >> 20) % uint64(g.sharedN))
	g.privRot = int(sim.NewRNG(procH^uint64(thread+1)).Uint64() % uint64(g.privN))
	return g
}

// Next implements cpu.Stream.
func (g *gen) Next() (cpu.Access, bool) {
	if g.hasQueued {
		g.hasQueued = false
		return g.queued, true
	}
	if g.left <= 0 {
		return cpu.Access{}, false
	}
	g.left--

	a := cpu.Access{Gap: uint32(g.rng.Intn(2*g.p.GapMean + 1))}
	switch {
	case g.rng.Bool(g.p.IfetchFrac):
		a.Kind = cpu.Ifetch
		a.Addr = g.codeB + g.rot(g.zCode.Draw(g.rng), g.codeRot, g.codeN)
	case g.rng.Bool(g.p.SharedFrac):
		// The stream takes the shared draw before the migratory coin;
		// only an access that keeps it maps it to an index.
		bits := g.zShared.Bits(g.rng)
		if g.rng.Bool(g.p.Migratory) {
			// Migratory read-modify-write on a hot block: queue the store
			// so ownership bounces between the threads touching it.
			a.Addr = g.sharedB + g.rot(g.zMig.Draw(g.rng), g.sharedRot, g.sharedN)
			a.Kind = cpu.Load
			g.queued = cpu.Access{Gap: uint32(g.rng.Intn(g.p.GapMean + 1)), Kind: cpu.Store, Addr: a.Addr}
			g.hasQueued = true
		} else {
			a.Addr = g.sharedB + g.rot(g.zShared.Index(bits), g.sharedRot, g.sharedN)
			if g.rng.Bool(g.p.SharedWriteFrac) {
				a.Kind = cpu.Store
			} else {
				a.Kind = cpu.Load
			}
		}
	default:
		if g.rng.Bool(g.p.Streaming) {
			a.Addr = g.privB + g.rot(g.seqPtr, g.privRot, g.privN)
			if g.seqPtr++; g.seqPtr == g.privN {
				g.seqPtr = 0
			}
		} else {
			a.Addr = g.privB + g.rot(g.zPriv.Draw(g.rng), g.privRot, g.privN)
		}
		if g.rng.Bool(g.p.WriteFrac) {
			a.Kind = cpu.Store
		} else {
			a.Kind = cpu.Load
		}
	}
	return a, true
}

// rot maps a region-relative index to a block offset, applying the
// region rotation. Both idx and rotation are below n.
func (g *gen) rot(idx, rotation, n int) coher.Addr {
	if idx += rotation; idx >= n {
		idx -= n
	}
	return coher.Addr(idx)
}

// Threads builds the per-core streams for a multithreaded run of p on n
// cores: one process whose threads share code and data regions.
func Threads(p Profile, n, accessesPerThread, scale int, seed uint64) []cpu.Stream {
	root := sim.NewRNG(seed ^ hashName(p.Name))
	out := make([]cpu.Stream, n)
	for t := 0; t < n; t++ {
		out[t] = newGen(p, 0, t, accessesPerThread, scale, root.Fork(uint64(t)+1))
	}
	return out
}

// Rate builds a homogeneous (rate-mode) multiprogrammed workload: n
// independent copies of p with fully disjoint address spaces.
func Rate(p Profile, n, accessesPerCopy, scale int, seed uint64) []cpu.Stream {
	root := sim.NewRNG(seed ^ hashName(p.Name))
	out := make([]cpu.Stream, n)
	for i := 0; i < n; i++ {
		out[i] = newGen(p, i, 0, accessesPerCopy, scale, root.Fork(uint64(i)+1))
	}
	return out
}

// Mix builds a heterogeneous multiprogrammed workload: one profile per
// core, disjoint address spaces.
func Mix(profiles []Profile, accessesPerCopy, scale int, seed uint64) []cpu.Stream {
	root := sim.NewRNG(seed)
	out := make([]cpu.Stream, len(profiles))
	for i, p := range profiles {
		out[i] = newGen(p, i, 0, accessesPerCopy, scale, root.Fork(uint64(i)+1^hashName(p.Name)))
	}
	return out
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
