package dram

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// BenchmarkAccess times one DRAM access on the Table I memory system
// (two DDR3-2133 channels): reads and writes over a seeded stream that
// mixes row hits (sequential runs) and row misses (random jumps), issued
// a few cycles apart so bank busy time also comes into play.
func BenchmarkAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	var a uint64
	for i := range addrs {
		if i%4 == 0 {
			a = uint64(rng.Intn(1 << 24))
		}
		a++
		addrs[i] = a
	}
	for _, op := range []string{"read", "write"} {
		b.Run(op, func(b *testing.B) {
			d := MustNew(DDR3_2133(2))
			b.ReportAllocs()
			var sink sim.Cycle
			for i := 0; i < b.N; i++ {
				t := sim.Cycle(i) * 8
				if op == "read" {
					sink += d.Read(t, addrs[i&4095], KindData)
				} else {
					sink += d.Write(t, addrs[i&4095], KindData)
				}
			}
			_ = sink
		})
	}
}
