package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeometryFor(t *testing.T) {
	g, err := GeometryFor(32<<10, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sets != 64 || g.Ways != 8 || g.Blocks() != 512 {
		t.Fatalf("geometry = %+v", g)
	}
	bad := [][3]int{
		{0, 8, 64},       // zero capacity
		{100, 8, 64},     // not a multiple of line size
		{3 << 10, 8, 64}, // 48 blocks not divisible by 8... (it is: 6 sets, not pow2)
		{-1, 8, 64},
	}
	for _, b := range bad {
		if _, err := GeometryFor(b[0], b[1], b[2]); err == nil {
			t.Fatalf("GeometryFor(%v) accepted", b)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	a := New[int](Geometry{Sets: 1, Ways: 4}, LRU)
	for i := 0; i < 4; i++ {
		way, free := a.FreeWay(0)
		if !free {
			t.Fatal("expected a free way")
		}
		a.Insert(0, way, uint64(i), i)
	}
	if _, free := a.FreeWay(0); free {
		t.Fatal("set should be full")
	}
	// Touch block 0 so block 1 becomes LRU.
	_, w0, ok := a.Lookup(0)
	if !ok {
		t.Fatal("block 0 missing")
	}
	a.Touch(0, w0)
	v := a.Victim(0)
	if a.AddrOf(0, v) != 1 {
		t.Fatalf("victim = block %d, want 1", a.AddrOf(0, v))
	}
	// Demote block 3 to make it the victim.
	_, w3, _ := a.Lookup(3)
	a.Demote(0, w3)
	if v := a.Victim(0); a.AddrOf(0, v) != 3 {
		t.Fatalf("victim after demote = block %d, want 3", a.AddrOf(0, v))
	}
}

// TestDemoteKeepsRelativeRecency is the regression test for the bug
// where Demote zeroed the use stamp: with several demoted lines in a
// set, Victim ties always broke toward the lowest way, destroying the
// lines' relative age. Demoted lines must leave oldest-first, and a
// later Touch must rescind the demotion.
func TestDemoteKeepsRelativeRecency(t *testing.T) {
	a := New[int](Geometry{Sets: 1, Ways: 4}, LRU)
	for i := 0; i < 4; i++ {
		a.Insert(0, i, uint64(i), i)
	}
	// Insertion order 0,1,2,3 (oldest first). Demote 3, then 1, then 2 —
	// demotion order must NOT matter, only the lines' own recency.
	for _, blk := range []uint64{3, 1, 2} {
		_, w, ok := a.Lookup(blk)
		if !ok {
			t.Fatalf("block %d missing", blk)
		}
		a.Demote(0, w)
	}
	// Victim order among the demoted: 1, then 2, then 3 (oldest stamps
	// first), and only then the never-demoted block 0.
	for _, want := range []uint64{1, 2, 3, 0} {
		w := a.Victim(0)
		if got := a.AddrOf(0, w); got != want {
			t.Fatalf("victim = block %d, want %d", got, want)
		}
		a.Invalidate(0, w)
	}

	// Touch rescinds a demotion: the line rejoins the normal order.
	b := New[int](Geometry{Sets: 1, Ways: 2}, LRU)
	b.Insert(0, 0, 0, 0)
	b.Insert(0, 1, 1, 1)
	b.Demote(0, 1)
	b.Touch(0, 1)
	if w := b.Victim(0); b.AddrOf(0, w) != 0 {
		t.Fatalf("touched-after-demote line victimized; victim = block %d, want 0", b.AddrOf(0, w))
	}
}

func TestNRUVictim(t *testing.T) {
	a := New[struct{}](Geometry{Sets: 1, Ways: 4}, NRU)
	for i := 0; i < 4; i++ {
		a.Insert(0, i, uint64(i), struct{}{})
	}
	// All referenced: the first pass clears bits and the scan restarts,
	// so way 0 is chosen.
	if v := a.Victim(0); v != 0 {
		t.Fatalf("victim = way %d, want 0", v)
	}
	// Reference ways 0 and 1; way 2 should now be the victim.
	a.Touch(0, 0)
	a.Touch(0, 1)
	if v := a.Victim(0); v != 2 {
		t.Fatalf("victim = way %d, want 2", v)
	}
}

func TestVictimWhere(t *testing.T) {
	a := New[string](Geometry{Sets: 1, Ways: 4}, LRU)
	kinds := []string{"data", "de", "data", "de"}
	for i, k := range kinds {
		a.Insert(0, i, uint64(i), k)
	}
	w, ok := a.VictimWhere(0, func(_ int, k *string) bool { return *k == "data" })
	if !ok || a.AddrOf(0, w) != 0 {
		t.Fatalf("filtered victim = %v/%v, want block 0", w, ok)
	}
	if _, ok := a.VictimWhere(0, func(_ int, k *string) bool { return *k == "none" }); ok {
		t.Fatal("no eligible way should report ok=false")
	}
}

func TestInvalidate(t *testing.T) {
	a := New[int](Geometry{Sets: 2, Ways: 2}, LRU)
	a.Insert(0, 0, 4, 42) // addr 4 maps to set 0
	if !a.Contains(4) {
		t.Fatal("lookup after insert failed")
	}
	set, way, _ := a.Lookup(4)
	a.Invalidate(set, way)
	if a.Contains(4) || a.CountValid() != 0 {
		t.Fatal("invalidate failed")
	}
}

func TestAddrOfRoundTrip(t *testing.T) {
	f := func(addr uint64) bool {
		a := New[struct{}](Geometry{Sets: 64, Ways: 4}, LRU)
		addr %= 1 << 40
		set := a.SetIndex(addr)
		a.Insert(set, 1, addr, struct{}{})
		return a.AddrOf(set, 1) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the array agrees with a reference map under random
// insert/lookup/invalidate sequences (victims evicted on conflict).
func TestArrayMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		a := New[uint16](Geometry{Sets: 8, Ways: 2}, LRU)
		ref := map[uint64]uint16{}
		for _, op := range ops {
			addr := uint64(op % 64)
			switch op % 3 {
			case 0: // insert
				set, way, ok := a.Lookup(addr)
				if !ok {
					var free bool
					way, free = a.FreeWay(set)
					if !free {
						way = a.Victim(set)
						delete(ref, a.AddrOf(set, way))
					}
				}
				a.Insert(set, way, addr, op)
				ref[addr] = op
			case 1: // lookup
				set, way, ok := a.Lookup(addr)
				want, inRef := ref[addr]
				if ok != inRef {
					return false
				}
				if ok && *a.Payload(set, way) != want {
					return false
				}
			case 2: // invalidate
				if set, way, ok := a.Lookup(addr); ok {
					a.Invalidate(set, way)
					delete(ref, addr)
				}
			}
		}
		return a.CountValid() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Payload of an invalid way must panic")
		}
	}()
	a := New[int](Geometry{Sets: 1, Ways: 1}, LRU)
	a.Payload(0, 0)
}

// TestNewRefusesUnrankableWays pins the associativity bounds New
// enforces: every array needs a way, and an LRU array ranks at most
// MaxLRUWays. The refusal names the bound.
func TestNewRefusesUnrankableWays(t *testing.T) {
	for _, tc := range []struct {
		ways   int
		policy Policy
		ok     bool
	}{
		{0, LRU, false}, {1, LRU, true}, {64, LRU, true}, {65, LRU, false},
		{0, NRU, false}, {1, NRU, true}, {64, NRU, true}, {65, NRU, true},
	} {
		func() {
			defer func() {
				r := recover()
				if (r == nil) != tc.ok {
					t.Fatalf("New(%d ways, policy %d): panic %v, want ok = %v", tc.ways, tc.policy, r, tc.ok)
				}
				if r != nil && !strings.Contains(fmt.Sprint(r), "MaxLRUWays") {
					t.Fatalf("New(%d ways) refusal %q does not name MaxLRUWays", tc.ways, r)
				}
			}()
			New[int](Geometry{Sets: 4, Ways: tc.ways}, tc.policy)
		}()
	}
}
