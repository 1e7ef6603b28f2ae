package core_test

import (
	"testing"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

// Scripted micro-scenarios pinning individual protocol paths: each test
// drives specific cores through specific accesses and checks the
// resulting states and counters.

type script struct{ q []cpu.Access }

func (s *script) Next() (cpu.Access, bool) {
	if len(s.q) == 0 {
		return cpu.Access{}, false
	}
	a := s.q[0]
	s.q = s.q[1:]
	return a, true
}

func (s *script) load(addr coher.Addr)  { s.q = append(s.q, cpu.Access{Kind: cpu.Load, Addr: addr}) }
func (s *script) store(addr coher.Addr) { s.q = append(s.q, cpu.Access{Kind: cpu.Store, Addr: addr}) }

// microSystem builds a system whose cores run scripted streams.
func microSystem(spec core.SystemSpec) (*core.System, []*script) {
	scripts := make([]*script, spec.Cores)
	streams := make([]cpu.Stream, spec.Cores)
	for i := range scripts {
		scripts[i] = &script{}
		streams[i] = scripts[i]
	}
	return core.NewSystem(spec, streams), scripts
}

const microScale = 16

func TestThreeHopReadFromOwner(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.Baseline(1, llc.NonInclusive))
	const X = coher.Addr(0x1000)

	sc[0].store(X)
	sys.Cores[0].Step()
	if st, _ := sys.Cores[0].HasBlock(X); st != coher.PrivModified {
		t.Fatalf("core 0 state = %v", st)
	}

	sc[1].load(X)
	sys.Cores[1].Step()
	st := sys.Engine.Stats()
	if st.Forwards3Hop != 1 {
		t.Fatalf("forwards = %d, want 1", st.Forwards3Hop)
	}
	if s0, _ := sys.Cores[0].HasBlock(X); s0 != coher.PrivShared {
		t.Fatalf("owner not downgraded: %v", s0)
	}
	if s1, _ := sys.Cores[1].HasBlock(X); s1 != coher.PrivShared {
		t.Fatalf("requester state: %v", s1)
	}
	// The M->S downgrade wrote the dirty block into the LLC.
	v := sys.Engine.LLC().Probe(X)
	if !v.HasData() {
		t.Fatal("downgrade did not deposit the block in the LLC")
	}
	if err := sys.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesAllSharers(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.Baseline(1, llc.NonInclusive))
	const X = coher.Addr(0x2000)

	for c := 0; c < 3; c++ {
		sc[c].load(X)
		sys.Cores[c].Step()
	}
	before := sys.Engine.Stats().DemandInvals
	sc[3].store(X)
	sys.Cores[3].Step()
	st := sys.Engine.Stats()
	if st.DemandInvals-before != 3 {
		t.Fatalf("demand invalidations = %d, want 3", st.DemandInvals-before)
	}
	for c := 0; c < 3; c++ {
		if _, ok := sys.Cores[c].HasBlock(X); ok {
			t.Fatalf("core %d still holds the block", c)
		}
	}
	if s3, _ := sys.Cores[3].HasBlock(X); s3 != coher.PrivModified {
		t.Fatalf("writer state = %v", s3)
	}
	if err := sys.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeKeepsRequesterCopy(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.Baseline(1, llc.NonInclusive))
	const X = coher.Addr(0x3000)

	sc[0].load(X)
	sys.Cores[0].Step()
	sc[1].load(X)
	sys.Cores[1].Step() // X now shared {0,1}... core 0 granted E, so this forwards
	sc[1].store(X)
	sys.Cores[1].Step() // S->M upgrade, invalidating core 0
	st := sys.Engine.Stats()
	if st.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", st.Upgrades)
	}
	if _, ok := sys.Cores[0].HasBlock(X); ok {
		t.Fatal("other sharer survived the upgrade")
	}
	if s1, _ := sys.Cores[1].HasBlock(X); s1 != coher.PrivModified {
		t.Fatalf("upgrader state = %v", s1)
	}
}

// TestFPSSTransitions walks one block through the fused->spilled->fused
// life cycle of §III-C2 under ZeroDEV with no sparse directory.
func TestFPSSTransitions(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive))
	const X = coher.Addr(0x4000)
	l := sys.Engine.LLC()

	// First touch: E grant, entry fused with the freshly filled line.
	sc[0].load(X)
	sys.Cores[0].Step()
	v := l.Probe(X)
	if !v.Fused {
		t.Fatalf("entry not fused after E grant: %+v", v)
	}
	if e := l.Entry(v); e.State != coher.DirOwned || e.Owner != 0 {
		t.Fatalf("fused entry = %v", e)
	}

	// Second core reads: M/E -> S transition spills the entry.
	sc[1].load(X)
	sys.Cores[1].Step()
	v = l.Probe(X)
	if v.Fused || !v.HasDE() || !v.HasData() {
		t.Fatalf("entry not spilled after sharing: %+v", v)
	}
	if e := l.Entry(v); e.State != coher.DirShared || e.Sharers.Count() != 2 {
		t.Fatalf("spilled entry = %v", e)
	}

	// Upgrade: S -> M fuses again, freeing the spilled line.
	sc[1].store(X)
	sys.Cores[1].Step()
	v = l.Probe(X)
	if !v.Fused {
		t.Fatalf("entry not re-fused after upgrade: %+v", v)
	}
	st := sys.Engine.Stats()
	if st.DEFuseToSpill != 1 || st.DESpillToFuse != 1 {
		t.Fatalf("transition counters: fuse->spill=%d spill->fuse=%d", st.DEFuseToSpill, st.DESpillToFuse)
	}
	if err := sys.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionFreesFusedEntry checks that the last holder's eviction
// notice reconstructs a fused line back into a plain data block.
func TestEvictionFreesFusedEntry(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive))
	l := sys.Engine.LLC()
	const X = coher.Addr(0x5000)

	sc[0].load(X)
	sys.Cores[0].Step()
	if !l.Probe(X).Fused {
		t.Fatal("setup: entry not fused")
	}
	// Conflict-evict X from core 0's private L2 (same L2 set: stride by
	// L2 sets).
	l2Sets := pre.CPU.L2Bytes / 64 / pre.CPU.L2Ways
	for i := 1; i <= pre.CPU.L2Ways; i++ {
		sc[0].load(X + coher.Addr(i*l2Sets))
		sys.Cores[0].Step()
	}
	if _, ok := sys.Cores[0].HasBlock(X); ok {
		t.Fatal("setup: X still cached")
	}
	v := l.Probe(X)
	if v.Fused || v.HasDE() {
		t.Fatalf("entry must be freed after the PutE notice: %+v", v)
	}
	if !v.HasData() {
		t.Fatal("fused line must revert to a data block (reconstructed from PutE low bits)")
	}
	if err := sys.Engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillAllPenaltyCounted(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.ZeroDEV(0, core.SpillAll, llc.DataLRU, llc.NonInclusive))
	const X = coher.Addr(0x6000)

	sc[0].load(X)
	sys.Cores[0].Step()
	sc[1].load(X)
	sys.Cores[1].Step() // forward; X becomes shared, entry spilled
	sc[2].load(X)
	sys.Cores[2].Step() // read served by LLC with a spilled entry: penalty
	if got := sys.Engine.Stats().SpillAllExtraDataReads; got == 0 {
		t.Fatal("SpillAll critical-path penalty not recorded")
	}
}

func TestFuseAllSharedReadForwards(t *testing.T) {
	pre := config.TableI(microScale)
	sys, sc := microSystem(pre.ZeroDEV(0, core.FuseAll, llc.DataLRU, llc.NonInclusive))
	const X = coher.Addr(0x7000)

	sc[0].load(X)
	sys.Cores[0].Step()
	sc[1].load(X)
	sys.Cores[1].Step() // downgrade to S; FuseAll keeps the entry fused (Fig. 11c)
	v := sys.Engine.LLC().Probe(X)
	if !v.Fused {
		t.Fatalf("FuseAll must keep shared entries fused: %+v", v)
	}
	before := sys.Engine.Stats().Forwards3Hop
	sc[2].load(X)
	sys.Cores[2].Step() // the fused block part is corrupted: read forwards to a sharer
	if got := sys.Engine.Stats().Forwards3Hop - before; got != 1 {
		t.Fatalf("FuseAll shared read must forward (got %d extra forwards)", got)
	}
}

// TestWorkloadDrivenDeterminism pins end-to-end determinism: identical
// configurations and seeds produce identical cycle counts and stats.
func TestWorkloadDrivenDeterminism(t *testing.T) {
	pre := config.TableI(32)
	run := func() (uint64, uint64) {
		spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
		sys := core.NewSystem(spec, workload.Threads(workload.MustGet("dedup"), spec.Cores, 5000, 32, 9))
		cyc := sys.Run()
		var misses uint64
		for _, c := range sys.Cores {
			misses += c.Stats().L2Misses
		}
		return uint64(cyc), misses
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, m1, c2, m2)
	}
}
