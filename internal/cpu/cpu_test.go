package cpu

import (
	"reflect"
	"testing"

	"repro/internal/coher"
	"repro/internal/sim"
)

// fakeUncore grants everything immediately and records events.
type fakeUncore struct {
	reads, writes, upgrades int
	evicts                  []evictEvent
	grant                   coher.PrivState
	lat                     sim.Cycle
}

type evictEvent struct {
	addr  coher.Addr
	state coher.PrivState
}

func (f *fakeUncore) Read(t sim.Cycle, c coher.CoreID, addr coher.Addr, code bool) (sim.Cycle, coher.PrivState) {
	f.reads++
	g := f.grant
	if code {
		g = coher.PrivShared
	}
	return t + f.lat, g
}
func (f *fakeUncore) Write(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	f.writes++
	return t + f.lat
}
func (f *fakeUncore) Upgrade(t sim.Cycle, c coher.CoreID, addr coher.Addr) sim.Cycle {
	f.upgrades++
	return t + f.lat
}
func (f *fakeUncore) Evict(t sim.Cycle, c coher.CoreID, addr coher.Addr, state coher.PrivState) {
	f.evicts = append(f.evicts, evictEvent{addr, state})
}

type sliceStream struct{ q []Access }

func (s *sliceStream) Next() (Access, bool) {
	if len(s.q) == 0 {
		return Access{}, false
	}
	a := s.q[0]
	s.q = s.q[1:]
	return a, true
}

func tinyParams() Params {
	p := DefaultParams()
	p.L1Bytes = 1 << 10 // 16 blocks, 8-way: 2 sets
	p.L2Bytes = 2 << 10 // 32 blocks, 8-way: 4 sets
	return p
}

func newCore(accs []Access) (*Core, *fakeUncore) {
	u := &fakeUncore{grant: coher.PrivExclusive, lat: 100}
	c := New(0, tinyParams(), &sliceStream{q: accs}, u)
	return c, u
}

func drain(c *Core) {
	for !c.Done() {
		c.Step()
	}
}

func TestLoadMissThenHit(t *testing.T) {
	c, u := newCore([]Access{
		{Kind: Load, Addr: 10},
		{Kind: Load, Addr: 10},
	})
	drain(c)
	st := c.Stats()
	if u.reads != 1 {
		t.Fatalf("uncore reads = %d, want 1 (second load hits L1)", u.reads)
	}
	if st.L2Misses != 1 || st.L1DMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSilentEToM(t *testing.T) {
	c, u := newCore([]Access{
		{Kind: Load, Addr: 10},  // E grant
		{Kind: Store, Addr: 10}, // silent E→M
	})
	drain(c)
	if u.upgrades != 0 || u.writes != 0 {
		t.Fatal("E→M must be silent")
	}
	if st, ok := c.HasBlock(10); !ok || st != coher.PrivModified {
		t.Fatalf("state = %v ok=%v, want M", st, ok)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	c, u := newCore(nil)
	u.grant = coher.PrivShared
	c.stream = &sliceStream{q: []Access{
		{Kind: Load, Addr: 10},
		{Kind: Store, Addr: 10},
	}}
	drain(c)
	if u.upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", u.upgrades)
	}
	if st, _ := c.HasBlock(10); st != coher.PrivModified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestStoreMissIssuesGetX(t *testing.T) {
	c, u := newCore([]Access{{Kind: Store, Addr: 20}})
	drain(c)
	if u.writes != 1 {
		t.Fatalf("writes = %d", u.writes)
	}
	if st, _ := c.HasBlock(20); st != coher.PrivModified {
		t.Fatalf("state = %v", st)
	}
}

func TestEvictionNotices(t *testing.T) {
	// Fill one L2 set (8 ways, 4 sets: addresses congruent mod 4) plus
	// one more to force an eviction.
	var accs []Access
	for i := 0; i < 9; i++ {
		accs = append(accs, Access{Kind: Load, Addr: coher.Addr(i * 4)})
	}
	c, u := newCore(accs)
	drain(c)
	if len(u.evicts) != 1 {
		t.Fatalf("evicts = %v, want exactly one", u.evicts)
	}
	if u.evicts[0].state != coher.PrivExclusive {
		t.Fatalf("clean E eviction expected, got %v", u.evicts[0].state)
	}
	// The evicted block is gone from L1 too (inclusion).
	if _, ok := c.HasBlock(u.evicts[0].addr); ok {
		t.Fatal("evicted block still present")
	}
}

func TestDirtyEvictionIsPutM(t *testing.T) {
	var accs []Access
	accs = append(accs, Access{Kind: Store, Addr: 0})
	for i := 1; i < 9; i++ {
		accs = append(accs, Access{Kind: Load, Addr: coher.Addr(i * 4)})
	}
	c, u := newCore(accs)
	drain(c)
	if len(u.evicts) != 1 || u.evicts[0].state != coher.PrivModified {
		t.Fatalf("evicts = %v, want one PutM", u.evicts)
	}
	_ = c
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c, _ := newCore([]Access{{Kind: Store, Addr: 10}})
	drain(c)
	if prev := c.Downgrade(10); prev != coher.PrivModified {
		t.Fatalf("downgrade returned %v", prev)
	}
	if st, _ := c.HasBlock(10); st != coher.PrivShared {
		t.Fatalf("state after downgrade = %v", st)
	}
	if prev := c.Invalidate(10); prev != coher.PrivShared {
		t.Fatalf("invalidate returned %v", prev)
	}
	if _, ok := c.HasBlock(10); ok {
		t.Fatal("block present after invalidate")
	}
	if c.Stats().InvalidationsReceived != 1 {
		t.Fatal("invalidation not counted")
	}
	if prev := c.Invalidate(10); prev != coher.PrivInvalid {
		t.Fatal("double invalidate must report Invalid")
	}
}

func TestIfetchGrantsShared(t *testing.T) {
	c, _ := newCore([]Access{{Kind: Ifetch, Addr: 30}})
	drain(c)
	if st, _ := c.HasBlock(30); st != coher.PrivShared {
		t.Fatalf("code block state = %v, want S", st)
	}
}

func TestGapAdvancesClock(t *testing.T) {
	c, _ := newCore([]Access{
		{Gap: 40, Kind: Load, Addr: 10},
		{Gap: 40, Kind: Load, Addr: 10},
	})
	drain(c)
	// 80 gap instructions at width 4 = 20 cycles, plus miss latency
	// (100/2 MLP) and the L1 hit.
	if c.Now() < 20 {
		t.Fatalf("clock = %d, too small", c.Now())
	}
	if got := c.Stats().Retired; got != 82 {
		t.Fatalf("retired = %d, want 82", got)
	}
}

func TestMLPDividesStall(t *testing.T) {
	mk := func(mlp float64) sim.Cycle {
		u := &fakeUncore{grant: coher.PrivExclusive, lat: 1000}
		p := tinyParams()
		p.LoadMLP = mlp
		c := New(0, p, &sliceStream{q: []Access{{Kind: Load, Addr: 8}}}, u)
		drain(c)
		return c.Now()
	}
	if a, b := mk(1), mk(4); b >= a {
		t.Fatalf("MLP 4 (%d cycles) must be faster than MLP 1 (%d)", b, a)
	}
}

func TestStreamPrefetcher(t *testing.T) {
	run := func(degree int) (misses, prefetches uint64) {
		u := &fakeUncore{grant: coher.PrivExclusive, lat: 100}
		p := tinyParams()
		p.PrefetchDegree = degree
		var accs []Access
		for i := 0; i < 24; i++ {
			accs = append(accs, Access{Kind: Load, Addr: coher.Addr(0x100 + i)})
		}
		c := New(0, p, &sliceStream{q: accs}, u)
		drain(c)
		st := c.Stats()
		return st.L2Misses, st.Prefetches
	}
	m0, p0 := run(0)
	m2, p2 := run(2)
	if p0 != 0 {
		t.Fatalf("prefetches with degree 0: %d", p0)
	}
	if p2 == 0 {
		t.Fatal("stream prefetcher never fired on a sequential walk")
	}
	if m2 >= m0 {
		t.Fatalf("prefetching did not reduce demand misses: %d vs %d", m2, m0)
	}
}

func TestStatIntervalStreamsIPC(t *testing.T) {
	accs := make([]Access, 200)
	for i := range accs {
		accs[i] = Access{Kind: Load, Addr: coher.Addr(i * 64), Gap: 7}
	}
	u := &fakeUncore{grant: coher.PrivExclusive, lat: 100}
	p := tinyParams()
	p.StatInterval = 100
	c := New(0, p, &sliceStream{q: accs}, u)
	drain(c)
	ser := c.IntervalIPC()
	if ser.Count() == 0 {
		t.Fatal("StatInterval > 0 produced no interval samples")
	}
	flat := ser.Flatten()
	if flat.Mean <= 0 || flat.Mean > float64(p.IssueWidth) {
		t.Fatalf("interval IPC mean = %v, want in (0, %d]", flat.Mean, p.IssueWidth)
	}
	// Disabled by default: zero overhead, empty series.
	c2 := New(0, tinyParams(), &sliceStream{q: append([]Access(nil), accs...)}, u)
	drain(c2)
	if c2.IntervalIPC().Count() != 0 {
		t.Fatal("StatInterval = 0 must not sample")
	}
}

// TestStatsAddSumsEveryField guards the run record's core fold: a
// counter added to Stats but not to Add would read as zero in every
// collected run.
func TestStatsAddSumsEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Stats
	sum.Add(&one)
	sum.Add(&one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Uint() != 2*uint64(i+1) {
			t.Errorf("Add: %s = %d, want %d", got.Type().Field(i).Name, got.Field(i).Uint(), 2*(i+1))
		}
	}
}
