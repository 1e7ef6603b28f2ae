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
			if got := l.deLines > 0; got != tc.spills {
				b.Fatalf("DE-line census %d, want non-zero = %v", l.deLines, tc.spills)
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

// BenchmarkEntry measures a directory-entry update, Probe + Entry +
// SetEntry, on a full 1 MB, 16-way, 8-bank LLC where every resident block
// is a fused line. "inline" houses bare owned entries, which live in the
// line header; "slab" houses shared entries, which live in the entry
// slab. Each update keeps the entry's shape, so no entry moves.
func BenchmarkEntry(b *testing.B) {
	for _, tc := range []struct {
		name   string
		entry  func(a int) coher.Entry
		update func(e coher.Entry) coher.Entry
		slab   bool
	}{
		{"inline",
			func(a int) coher.Entry { return owned(coher.CoreID(a % 128)) },
			func(e coher.Entry) coher.Entry { e.Owner = (e.Owner + 1) % 128; return e },
			false},
		{"slab",
			func(a int) coher.Entry { return shared(coher.CoreID(a%128), coher.CoreID((a+1)%128)) },
			func(e coher.Entry) coher.Entry { e.Busy = !e.Busy; return e },
			true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			l := MustNew(1<<20, 16, 8, NonInclusive, DataLRU)
			for a := 0; a < l.Blocks(); a++ {
				if _, evicted := l.InsertData(coher.Addr(a), false); evicted {
					b.Fatalf("filling block %d evicted a line", a)
				}
				l.Fuse(l.Probe(coher.Addr(a)), tc.entry(a))
			}
			if l.deLines != l.Blocks() || (l.slab.live > 0) != tc.slab {
				b.Fatalf("DE lines %d of %d blocks, %d slab entries", l.deLines, l.Blocks(), l.slab.live)
			}
			rng := rand.New(rand.NewSource(1))
			addrs := make([]coher.Addr, 4096)
			for i := range addrs {
				addrs[i] = coher.Addr(rng.Intn(l.Blocks()))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := l.Probe(addrs[i%len(addrs)])
				l.SetEntry(v, tc.update(l.Entry(v)))
			}
		})
	}
}
