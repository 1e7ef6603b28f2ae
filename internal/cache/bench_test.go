package cache

import (
	"testing"

	"repro/internal/sim"
)

// benchShapes are the replacement shapes the modeled caches use: the
// 8-way LRU private caches, the 16-way LRU LLC, and the 8-way NRU
// sparse directory.
var benchShapes = []struct {
	name   string
	ways   int
	policy Policy
}{
	{"LRU8", 8, LRU},
	{"LRU16", 16, LRU},
	{"NRU8", 8, NRU},
}

const benchSets = 512

// benchLine is an LLC-style line header: a kind (0 = data, otherwise a
// directory-entry line), a dirty bit and a slot.
type benchLine struct {
	kind  uint8
	dirty bool
	slot  uint32
}

// benchFull returns a full array, every fourth line a directory-entry
// line, and the resident block addresses in a shuffled order.
func benchFull(ways int, policy Policy) (*Array[benchLine], []uint64) {
	a := New[benchLine](Geometry{Sets: benchSets, Ways: ways}, policy)
	addrs := make([]uint64, 0, benchSets*ways)
	for i := 0; i < benchSets*ways; i++ {
		addr := uint64(i)
		set := a.SetIndex(addr)
		w, _ := a.FreeWay(set)
		a.Insert(set, w, addr, benchLine{kind: uint8(i / benchSets % 4 / 3)}) // way 3 of every 4
		addrs = append(addrs, addr)
	}
	rng := sim.NewRNG(1)
	for i := len(addrs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		addrs[i], addrs[j] = addrs[j], addrs[i]
	}
	return a, addrs
}

// BenchmarkHit is the private-cache hit path: Lookup of a resident block
// and Touch of its way.
func BenchmarkHit(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			a, addrs := benchFull(sh.ways, sh.policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set, way, ok := a.Lookup(addrs[i%len(addrs)])
				if !ok {
					b.Fatal("resident block missed")
				}
				a.Touch(set, way)
			}
		})
	}
}

// BenchmarkFill is the miss path on full sets: FreeWay finds none,
// Victim picks the line to replace, and Insert fills it.
func BenchmarkFill(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			a, _ := benchFull(sh.ways, sh.policy)
			next := uint64(benchSets * sh.ways)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := next + uint64(i)
				set := a.SetIndex(addr)
				w, free := a.FreeWay(set)
				if !free {
					w = a.Victim(set)
				}
				a.Insert(set, w, addr, benchLine{})
			}
		})
	}
}

// BenchmarkVictimWhere is the LLC's filtered victim selection on a full
// set: the eligible ways are data lines other than the block pinned by
// the in-flight transaction. The chosen way is touched, as the refill
// would, so NRU reference bits keep turning over.
func BenchmarkVictimWhere(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			a, addrs := benchFull(sh.ways, sh.policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pinned := addrs[i%len(addrs)]
				set, pin := a.SetIndex(pinned), a.Tag(pinned)
				w, ok := a.VictimWhere(set, func(way int, p *benchLine) bool {
					return p.kind == 0 && a.TagAt(set, way) != pin
				})
				if !ok {
					b.Fatal("no eligible way")
				}
				a.Touch(set, w)
			}
		})
	}
}
