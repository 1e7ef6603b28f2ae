package mem

import (
	"math/rand"
	"testing"

	"repro/internal/coher"
)

// segmentEntries is a pool of live entries over an N-core socket: owned
// entries and sharer sets of 2, N/4, N/2 and N draws, so a compressed
// shape both keeps precise segments and coarsens wide ones.
func segmentEntries(cores int) [8]coher.Entry {
	rng := rand.New(rand.NewSource(1))
	var es [8]coher.Entry
	for i := range es {
		if i%2 == 0 {
			es[i] = owned(coher.CoreID(rng.Intn(cores)))
			continue
		}
		es[i].State = coher.DirShared
		for k := 0; k < [4]int{2, cores / 4, cores / 2, cores}[i/2]; k++ {
			es[i].Sharers.Add(coher.CoreID(rng.Intn(cores)))
		}
	}
	return es
}

// BenchmarkSegment times the home-segment cycle that WB_DE, GET_DE and
// PutDE reduce to: write one socket's entry into a block, read it back
// and clear it, over 1024 blocks. The shapes are four 8-core sockets
// (full-map segments) and four 256-core sockets (compressed segments,
// the zdev1024-canneal cell). A cleared block stays corrupted, as after
// a PutDE, so the steady state reuses its metadata.
func BenchmarkSegment(b *testing.B) {
	for _, tc := range []struct {
		name           string
		sockets, cores int
	}{
		{"fullmap-4x8", 4, 8},
		{"compressed-4x256", 4, 256},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := MustNew(tc.sockets, tc.cores)
			if (m.SegmentBudget() > 0) != (tc.cores == 256) {
				b.Fatalf("segment budget %d at %d x %d", m.SegmentBudget(), tc.sockets, tc.cores)
			}
			es := segmentEntries(tc.cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr, s := coher.Addr(i&1023), i%tc.sockets
				if err := m.WriteSegment(addr, s, es[i&7]); err != nil {
					b.Fatal(err)
				}
				if _, ok := m.ReadSegment(addr, s); !ok {
					b.Fatal("segment lost")
				}
				m.ClearSegment(addr, s)
			}
		})
	}
}
