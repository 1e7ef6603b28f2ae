package socket

import (
	"testing"

	"repro/internal/coher"
	"repro/internal/sim"
)

// BenchmarkSocketDirectory times the socket-level directory's
// operations under each backing scheme, behind the 65536-entry cache
// that the multi-socket cells use at scale 8, with 10^5 live entries
// beyond what the cache holds, so that the backing store's probe length
// shows:
//
//   - hit: a lookup the cache answers;
//   - miss: a lookup the backing store answers, which refills the cache
//     and moves a live victim out;
//   - store-miss: a live store to an entry the cache does not hold,
//     which also moves a live victim out;
//   - dead-store: the store SocketEvict makes after its lookup, freeing
//     a cached entry. Every 1024 operations the freed entries are stored
//     again with the timer stopped.
//
// Every entry is owned, so replacement is plain NRU, and the miss and
// store-miss loops cycle through all entries, which misses every time.
func BenchmarkSocketDirectory(b *testing.B) {
	const (
		cacheEntries = 65536
		backed       = 100_000
		batch        = 1024
	)
	setup := func(b *testing.B, backing Backing) (sys *System, all, cached []coher.Addr) {
		sys = newBareSystem(b, backing, cacheEntries)
		all = make([]coher.Addr, cacheEntries+backed)
		for i := range all {
			all[i] = coher.Addr(i)
			sys.storeSocketEntry(0, all[i], sockOwned(i%4))
		}
		sys.dirCache.ForEachValid(func(_, _ int, a uint64, _ *uint64) { cached = append(cached, coher.Addr(a)) })
		b.ReportAllocs()
		b.ResetTimer()
		return sys, all, cached
	}
	for _, bk := range []struct {
		name    string
		backing Backing
	}{{"backup", MemoryBackup}, {"direvict", DirEvictBit}} {
		b.Run(bk.name+"/hit", func(b *testing.B) {
			sys, _, cached := setup(b, bk.backing)
			for i := 0; i < b.N; i++ {
				sys.lookupSocketEntry(sim.Cycle(i), cached[i%len(cached)])
			}
		})
		b.Run(bk.name+"/miss", func(b *testing.B) {
			sys, all, _ := setup(b, bk.backing)
			for i := 0; i < b.N; i++ {
				sys.lookupSocketEntry(sim.Cycle(i), all[i%len(all)])
			}
		})
		b.Run(bk.name+"/store-miss", func(b *testing.B) {
			sys, all, _ := setup(b, bk.backing)
			for i := 0; i < b.N; i++ {
				sys.storeSocketEntry(sim.Cycle(i), all[i%len(all)], sockOwned((i+1)%4))
			}
		})
		b.Run(bk.name+"/dead-store", func(b *testing.B) {
			sys, _, cached := setup(b, bk.backing)
			for i := 0; i < b.N; i++ {
				sys.storeSocketEntry(sim.Cycle(i), cached[i%len(cached)], coher.SocketEntry{})
				if (i+1)%batch == 0 {
					b.StopTimer()
					for j := i + 1 - batch; j <= i; j++ {
						sys.storeSocketEntry(sim.Cycle(i), cached[j%len(cached)], sockOwned(j%4))
					}
					b.StartTimer()
				}
			}
		})
	}
}
