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
	sets    [64]CoreSet
	members [64]CoreID
	probes  [1024]CoreID
}

func newCoreSetBench(cores int) *coreSetBench {
	rng := rand.New(rand.NewSource(1))
	cb := &coreSetBench{}
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
