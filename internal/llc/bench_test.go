package llc

import (
	"math/rand"
	"testing"

	"repro/internal/coher"
)

// BenchmarkProbe measures Probe on a 1 MB, 16-way, 8-bank LLC three
// quarters full of data lines, over an address mix of three hits to one
// miss. With the DE-line census at zero Probe is a single first-match
// scan; with one block in eight carrying a spilled entry beside its data
// line, it classifies up to two matching ways by kind.
func BenchmarkProbe(b *testing.B) {
	for _, tc := range []struct {
		name   string
		spills bool
	}{{"census0", false}, {"census", true}} {
		b.Run(tc.name, func(b *testing.B) {
			l := MustNew(1<<20, 16, 8, NonInclusive, DataLRU)
			resident := l.Blocks() * 3 / 4
			for a := 0; a < resident; a++ {
				l.InsertData(coher.Addr(a), false)
			}
			if tc.spills {
				for a := 0; a < resident; a += 6 {
					l.InsertSpilled(coher.Addr(a), shared(0))
				}
			}
			if got := l.slab.live > 0; got != tc.spills {
				b.Fatalf("DE-line census %d, want non-zero = %v", l.slab.live, tc.spills)
			}
			rng := rand.New(rand.NewSource(1))
			addrs := make([]coher.Addr, 4096)
			for i := range addrs {
				addrs[i] = coher.Addr(rng.Intn(l.Blocks()))
			}
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if l.Probe(addrs[i%len(addrs)]).HasData() {
					hits++
				}
			}
			if b.N >= len(addrs) && hits == 0 {
				b.Fatal("no probe hit")
			}
		})
	}
}
