package coher

import (
	"math/rand"
	"testing"
)

// benchWidths are the socket widths the simulator runs: the paper's
// 8-core socket, its 128-core server (the last width held in the two
// inline words), and the 1024-core scale frontier, where most members
// live in the copy-on-write extension.
var benchWidths = []struct {
	name  string
	cores int
}{
	{"8c", 8},
	{"128c", 128},
	{"1024c", 1024},
}

// coreSetBench is a seeded pool of sparse sharer sets (one to four
// members, as directory entries hold) with, for each set, one member
// to remove, plus a stream of probe cores drawn over the whole width.
type coreSetBench struct {
	width   int
	sets    [64]CoreSet
	members [64]CoreID
	probes  [1024]CoreID
}

func newCoreSetBench(cores int) *coreSetBench {
	rng := rand.New(rand.NewSource(1))
	cb := &coreSetBench{width: cores}
	for i := range cb.sets {
		for k := 0; k <= i%4; k++ {
			c := CoreID(rng.Intn(cores))
			cb.sets[i].Add(c)
			cb.members[i] = c
		}
	}
	for i := range cb.probes {
		cb.probes[i] = CoreID(rng.Intn(cores))
	}
	return cb
}

var benchSink int

// benchWidthsRun runs body once per width over that width's pool, with
// allocations reported and setup excluded from the timing.
func benchWidthsRun(b *testing.B, body func(b *testing.B, cb *coreSetBench)) {
	for _, w := range benchWidths {
		b.Run(w.name, func(b *testing.B) {
			cb := newCoreSetBench(w.cores)
			b.ReportAllocs()
			b.ResetTimer()
			body(b, cb)
		})
	}
}

// BenchmarkCoreSetAdd adds a probe core to a copy of a pooled set, the
// way the engine derives a next entry from the current one, so a new
// member past core 127 pays the extension's copy-on-write.
func BenchmarkCoreSetAdd(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		for i := 0; i < b.N; i++ {
			s := cb.sets[i&63]
			s.Add(cb.probes[i&1023])
			benchSink += len(s.ext)
		}
	})
}

// BenchmarkCoreSetRemove removes a member from a copy of a pooled set.
func BenchmarkCoreSetRemove(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		for i := 0; i < b.N; i++ {
			s := cb.sets[i&63]
			s.Remove(cb.members[i&63])
			benchSink += len(s.ext)
		}
	})
}

// BenchmarkCoreSetContains probes pooled sets with cores drawn over the
// whole width.
func BenchmarkCoreSetContains(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		for i := 0; i < b.N; i++ {
			if cb.sets[i&63].Contains(cb.probes[i&1023]) {
				benchSink++
			}
		}
	})
}

// BenchmarkCoreSetFirst is forward election: the lowest member.
func BenchmarkCoreSetFirst(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		for i := 0; i < b.N; i++ {
			benchSink += int(cb.sets[i&63].First())
		}
	})
}

// BenchmarkCoreSetForEach visits every member, as invalidation fan-out
// does.
func BenchmarkCoreSetForEach(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		for i := 0; i < b.N; i++ {
			cb.sets[i&63].ForEach(func(c CoreID) { benchSink += int(c) })
		}
	})
}

// entryAt is the i-th of a stream of live entries over cb's width:
// owned by a probe core, or shared by a pooled set.
func (cb *coreSetBench) entryAt(i int) Entry {
	if i&1 == 0 {
		return Entry{State: DirOwned, Owner: cb.probes[i&1023]}
	}
	return Entry{State: DirShared, Sharers: cb.sets[i&63]}
}

// BenchmarkSpilled encodes an entry into the spilled line format
// (Figs. 9a/11a) and decodes it back, as the deflip injector does for
// every flip it injects. The format's 128-bit sharer vector holds the
// 8- and 128-core widths only.
func BenchmarkSpilled(b *testing.B) {
	benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
		if cb.width > 128 {
			b.Skip("the spilled format holds at most 128 cores")
		}
		for i := 0; i < b.N; i++ {
			e, err := DecodeSpilled(EncodeSpilled(cb.entryAt(i)))
			if err != nil {
				b.Fatal(err)
			}
			benchSink += int(e.Owner)
		}
	})
}

// BenchmarkFused encodes an entry into a fused header over a block's
// data and decodes it back: the FPSS owner header (Fig. 9b) at every
// width, and the FuseAll M/E or S header (Fig. 11) at the widths whose
// S header fits the line.
func BenchmarkFused(b *testing.B) {
	var block Line
	for i := range block {
		block[i] = byte(i)
	}
	b.Run("fpss", func(b *testing.B) {
		benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
			for i := 0; i < b.N; i++ {
				f := FusedFPSS{BlockDirty: i&2 != 0, Owner: cb.probes[i&1023]}
				d, err := DecodeFusedFPSS(EncodeFusedFPSS(block, f, cb.width), cb.width)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int(d.Owner)
			}
		})
	})
	b.Run("fuseall", func(b *testing.B) {
		benchWidthsRun(b, func(b *testing.B, cb *coreSetBench) {
			if !FitsFusedFuseAll(DirShared, cb.width) {
				b.Skip("the FuseAll S header does not fit the line at this width")
			}
			for i := 0; i < b.N; i++ {
				e := cb.entryAt(i)
				l, err := EncodeFusedFuseAll(block, FusedFuseAll{State: e.State, Owner: e.Owner, Sharers: e.Sharers}, cb.width)
				if err != nil {
					b.Fatal(err)
				}
				d, err := DecodeFusedFuseAll(l, cb.width)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int(d.Owner)
			}
		})
	})
}
