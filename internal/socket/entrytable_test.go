package socket

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/coher"
)

// homedAt returns n addresses whose keys hash to slot at a table of
// the given slot count, so they collide on purpose.
func homedAt(slots, slot, n int) []coher.Addr {
	probe := entryTable{keys: make([]uint64, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	var out []coher.Addr
	for a := coher.Addr(0); len(out) < n; a++ {
		if probe.home(uint64(a)+1) == slot {
			out = append(out, a)
		}
	}
	return out
}

// checkTableAgainst compares every entry of the table with want, both
// ways, and the table's count.
func checkTableAgainst(t *testing.T, tab *entryTable, want map[coher.Addr]uint64) {
	t.Helper()
	if tab.n != len(want) {
		t.Fatalf("count = %d, want %d", tab.n, len(want))
	}
	for a, w := range want {
		if got, ok := tab.get(a); !ok || got != w {
			t.Fatalf("get(%#x) = %#x, %v; want %#x", uint64(a), got, ok, w)
		}
	}
	seen := 0
	tab.forEach(func(a coher.Addr, w uint64) {
		seen++
		if want[a] != w {
			t.Fatalf("forEach visits %#x = %#x, want %#x", uint64(a), w, want[a])
		}
	})
	if seen != len(want) {
		t.Fatalf("forEach visited %d entries, want %d", seen, len(want))
	}
}

func TestEntryTableMatchesMap(t *testing.T) {
	// Pools of keys that collide: multiples of the capacities the table
	// passes through, runs of keys homed at one slot (long clusters),
	// keys homed at the last slot (runs that wrap to slot 0), and
	// neighbours of those homes, all mixed with plain random keys.
	var pool []coher.Addr
	for _, c := range []int{16, 64, 1024, 1 << 14} {
		for i := 0; i < 24; i++ {
			pool = append(pool, coher.Addr(i*c))
		}
	}
	for _, slots := range []int{16, 32, 256, 4096} {
		pool = append(pool, homedAt(slots, slots-1, 12)...)
		pool = append(pool, homedAt(slots, slots-2, 6)...)
		pool = append(pool, homedAt(slots, 0, 6)...)
		pool = append(pool, homedAt(slots, slots/2, 12)...)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		pool = append(pool, coher.Addr(rng.Uint64()>>20))
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab entryTable
		want := make(map[coher.Addr]uint64)
		growths, slots := 0, 0
		for op := 0; op < 40000; op++ {
			a := pool[rng.Intn(len(pool))]
			// Fill for the first half, then drain: the table grows
			// through several doublings, then runs mostly-deleting.
			putShare := 7
			if op >= 20000 {
				putShare = 3
			}
			switch r := rng.Intn(10); {
			case r < putShare:
				w := rng.Uint64() | 1
				tab.put(a, w)
				want[a] = w
			case r < 9:
				w, ok := tab.take(a)
				ww, wok := want[a]
				if ok != wok || w != ww {
					t.Fatalf("seed %d op %d: take(%#x) = %#x, %v; want %#x, %v", seed, op, uint64(a), w, ok, ww, wok)
				}
				delete(want, a)
			default:
				w, ok := tab.get(a)
				ww, wok := want[a]
				if ok != wok || w != ww {
					t.Fatalf("seed %d op %d: get(%#x) = %#x, %v; want %#x, %v", seed, op, uint64(a), w, ok, ww, wok)
				}
			}
			if len(tab.keys) != slots {
				growths++
				slots = len(tab.keys)
			}
			if tab.n*8 > len(tab.keys)*7 {
				t.Fatalf("seed %d op %d: %d entries in %d slots, over 7/8", seed, op, tab.n, len(tab.keys))
			}
			if op%97 == 0 {
				checkTableAgainst(t, &tab, want)
			}
		}
		checkTableAgainst(t, &tab, want)
		if growths < 6 {
			t.Fatalf("seed %d: table grew %d times, want at least 6", seed, growths)
		}
	}
}

func TestEntryTableGrowsPastSevenEighths(t *testing.T) {
	// 14 of 16 slots is exactly 7/8 and fits; the 15th entry doubles.
	var tab entryTable
	for a := coher.Addr(0); a < 14; a++ {
		tab.put(a, 1)
	}
	if len(tab.keys) != 16 {
		t.Fatalf("14 entries in %d slots, want 16", len(tab.keys))
	}
	tab.put(14, 1)
	if len(tab.keys) != 32 {
		t.Fatalf("15 entries in %d slots, want 32", len(tab.keys))
	}
	tab.put(14, 2) // replacing an entry does not count twice
	if tab.n != 15 {
		t.Fatalf("count = %d, want 15", tab.n)
	}
}
