package directory

import (
	"math/rand"
	"testing"

	"repro/internal/coher"
)

// Every flavor is sized like an 8-core Table I socket slice at 1×:
// 4096 entries in 512 sets of 8 ways (SecDir splits the same sets into
// a 5-way shared partition and 8 private 32×7 partitions, and the
// unbounded directory shadows that organization).
const (
	benchEntries = 4096
	benchWays    = 8
	benchCores   = 8
)

var benchFlavors = []struct {
	name  string
	build func() Directory
}{
	{"Traditional", func() Directory { return MustTraditional(benchEntries, benchWays) }},
	{"ReplacementDisabled", func() Directory { return MustReplacementDisabled(benchEntries, benchWays) }},
	{"SecDir", func() Directory {
		return MustSecDir(benchCores, benchEntries/benchWays, benchWays*5/8, benchEntries/benchWays/16, benchWays-1)
	}},
	{"MgD", func() Directory { return MustMgD(benchEntries, benchWays) }},
	{"Unbounded", func() Directory {
		u := NewUnbounded()
		u.SetShadow(benchEntries/benchWays, benchWays)
		return u
	}},
}

// benchStream returns a seeded address stream over a footprint four
// times the directory's capacity, and one live entry per address: an
// owner, or two sharers, alternating.
func benchStream() ([]coher.Addr, []coher.Entry) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]coher.Addr, 8192)
	ents := make([]coher.Entry, len(addrs))
	for i := range addrs {
		addrs[i] = coher.Addr(rng.Intn(4 * benchEntries))
		c := coher.CoreID(rng.Intn(benchCores))
		if i%2 == 0 {
			ents[i] = owned(c)
		} else {
			ents[i] = shared(c, (c+3)%benchCores)
		}
	}
	return addrs, ents
}

// benchWarm returns a directory that has already stored the whole
// stream once, so the timed loop runs in steady state: bounded
// directories full (evicting or refusing), the unbounded map at its
// final size.
func benchWarm(build func() Directory) (Directory, []coher.Addr, []coher.Entry) {
	d := build()
	addrs, ents := benchStream()
	for i, a := range addrs {
		d.Store(a, ents[i])
	}
	return d, addrs, ents
}

// BenchmarkStore is the allocation path the engine takes whenever a
// block gains a holder: an in-place update when the entry is present
// (always, for the warmed unbounded directory), otherwise an allocation
// that evicts (Traditional, SecDir, MgD) or is refused
// (ReplacementDisabled).
func BenchmarkStore(b *testing.B) {
	for _, f := range benchFlavors {
		b.Run(f.name, func(b *testing.B) {
			d, addrs, ents := benchWarm(f.build)
			b.ReportAllocs()
			b.ResetTimer()
			housed := 0
			for i := 0; i < b.N; i++ {
				j := i % len(addrs)
				if _, ok := d.Store(addrs[j], ents[j]); ok {
					housed++
				}
			}
			if b.N >= len(addrs) && housed == 0 {
				b.Fatal("no store housed")
			}
		})
	}
}

// BenchmarkLookup is the miss path's directory probe over the same
// stream, against a directory in steady state.
func BenchmarkLookup(b *testing.B) {
	for _, f := range benchFlavors {
		b.Run(f.name, func(b *testing.B) {
			d, addrs, _ := benchWarm(f.build)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := d.Lookup(addrs[i%len(addrs)]); ok {
					hits++
				}
			}
			if b.N >= len(addrs) && hits == 0 {
				b.Fatal("no lookup hit")
			}
		})
	}
}
