package noc

import (
	"testing"

	"repro/internal/coher"
)

// BenchmarkMesh times the routing calls the engine makes on every
// transaction (CoreToBank, CoreToCore) and the traffic charge it makes
// per message (Record), on an 8-core Table I socket (8 LLC banks) and a
// 256-core wide socket (64 banks). Endpoints and message types cycle
// through every core, bank and type.
func BenchmarkMesh(b *testing.B) {
	for _, tc := range []struct {
		name         string
		cores, banks int
	}{{"8c", 8, 8}, {"256c", 256, 64}} {
		m := MustNew(DefaultParams(), tc.cores, tc.banks)
		b.Run(tc.name+"/CoreToBank", func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += int64(m.CoreToBank(coher.CoreID(i%tc.cores), i%tc.banks))
			}
			_ = sink
		})
		b.Run(tc.name+"/CoreToCore", func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += int64(m.CoreToCore(coher.CoreID(i%tc.cores), coher.CoreID((i*7+3)%tc.cores)))
			}
			_ = sink
		})
		b.Run(tc.name+"/Record", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Record(coher.MsgType(i%coher.NumMsgTypes), tc.cores)
			}
		})
	}
}
