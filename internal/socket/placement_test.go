package socket

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/sim"
)

// writeThroughDir is the socket-level directory written the simple way:
// under MemoryBackup every store writes through to a backup map, which
// thus holds every live entry, the cached ones included, and under
// DirEvictBit a store that misses fills without clearing the block's
// partition. It is the reference that System's one-copy directory
// must match in every returned entry, time, stat and DRAM charge.
type writeThroughDir struct {
	backing  Backing
	dirCache *cache.Array[uint64]
	backup   map[uint64]uint64 // block address -> packed entry
	mem      *mem.Memory
	dram     *dram.DRAM
	stats    Stats
}

func newWriteThroughDir(backing Backing, entries, sockets, cores int, dp dram.Params) *writeThroughDir {
	return &writeThroughDir{
		backing:  backing,
		dirCache: cache.New[uint64](cache.Geometry{Sets: entries / 8, Ways: 8}, cache.NRU),
		backup:   make(map[uint64]uint64),
		mem:      mem.MustNew(sockets, cores),
		dram:     dram.MustNew(dp),
	}
}

func (r *writeThroughDir) lookup(t sim.Cycle, addr coher.Addr) (coher.SocketEntry, sim.Cycle) {
	if set, way, ok := r.dirCache.Lookup(uint64(addr)); ok {
		r.dirCache.Touch(set, way)
		return coher.UnpackSocketEntry(*r.dirCache.Payload(set, way)), t + 2
	}
	r.stats.DirCacheMisses++
	if r.backing == MemoryBackup {
		w := r.backup[uint64(addr)]
		r.dram.Read(t, uint64(addr), dram.KindData)
		r.fill(t, addr, w)
		return coher.UnpackSocketEntry(w), t + 4
	}
	if e, ok := r.mem.DirEvict(addr); ok {
		r.stats.DirEvictBitHits++
		r.dram.Read(t, uint64(addr), dram.KindData)
		r.mem.ClearDirEvict(addr)
		r.fill(t, addr, e.Pack())
		return e, t + 4
	}
	return coher.SocketEntry{}, t + 2
}

func (r *writeThroughDir) store(t sim.Cycle, addr coher.Addr, e coher.SocketEntry) {
	w := e.Pack()
	if r.backing == MemoryBackup {
		if e.Live() {
			r.backup[uint64(addr)] = w
		} else {
			delete(r.backup, uint64(addr))
		}
	}
	set, way, ok := r.dirCache.Lookup(uint64(addr))
	if !e.Live() {
		if ok {
			r.dirCache.Invalidate(set, way)
		}
		if r.backing == DirEvictBit {
			r.mem.ClearDirEvict(addr)
		}
		return
	}
	if ok {
		*r.dirCache.Payload(set, way) = w
		r.dirCache.Touch(set, way)
		return
	}
	r.fill(t, addr, w)
}

func (r *writeThroughDir) fill(t sim.Cycle, addr coher.Addr, w uint64) {
	set := r.dirCache.SetIndex(uint64(addr))
	way, free := r.dirCache.FreeWay(set)
	if !free {
		vw, ok := r.dirCache.VictimWhere(set, func(_ int, p *uint64) bool {
			return coher.UnpackSocketEntry(*p).State == coher.SockOwned
		})
		if !ok {
			vw = r.dirCache.Victim(set)
		}
		way = vw
		victim := coher.UnpackSocketEntry(*r.dirCache.Payload(set, way))
		vAddr := coher.Addr(r.dirCache.AddrOf(set, way))
		if r.backing == DirEvictBit && victim.Live() {
			r.mem.SetDirEvict(vAddr, victim)
			r.dram.Write(t, uint64(vAddr), dram.KindData)
		}
		r.dirCache.Invalidate(set, way)
	}
	r.dirCache.Insert(set, way, uint64(addr), w)
}

func (r *writeThroughDir) peek(addr coher.Addr) coher.SocketEntry {
	if set, way, ok := r.dirCache.Lookup(uint64(addr)); ok {
		return coher.UnpackSocketEntry(*r.dirCache.Payload(set, way))
	}
	if r.backing == MemoryBackup {
		return coher.UnpackSocketEntry(r.backup[uint64(addr)])
	}
	e, _ := r.mem.DirEvict(addr)
	return e
}

// randomSocketEntry draws a live entry over four sockets: owned, or
// shared by two to four of them.
func randomSocketEntry(rng *rand.Rand) coher.SocketEntry {
	if rng.Intn(2) == 0 {
		return sockOwned(rng.Intn(4))
	}
	e := coher.SocketEntry{State: coher.SockShared}
	for e.Sharers.Count() < 2 {
		e.Sharers.Add(rng.Intn(4))
	}
	return e
}

func appendWord(buf []byte, w *uint64) []byte {
	return append(buf, byte(*w), byte(*w>>8), byte(*w>>16), byte(*w>>24),
		byte(*w>>32), byte(*w>>40), byte(*w>>48), byte(*w>>56))
}

// checkOnePlace asserts that the directory cache and the backing store
// are disjoint, that the backing store holds only live entries, that
// every entry reads as the reference's, and that the cache holds the
// same lines as the reference's.
func checkOnePlace(t *testing.T, sys *System, ref *writeThroughDir, addrs int) {
	t.Helper()
	backed := 0
	for a := coher.Addr(0); a < coher.Addr(addrs); a++ {
		e, inBacking := sys.backedEntry(a)
		if inBacking {
			backed++
			if !e.Live() {
				t.Fatalf("backing store holds a dead entry for %#x", uint64(a))
			}
			if sys.dirCache.Contains(uint64(a)) {
				t.Fatalf("%#x is both cached and in the backing store", uint64(a))
			}
		}
		if got, want := sys.peekSocketEntry(a), ref.peek(a); got != want {
			t.Fatalf("peek(%#x) = %+v, reference %+v", uint64(a), got, want)
		}
	}
	if sys.P.Backing == MemoryBackup && sys.backup.n != backed {
		t.Fatalf("backup table holds %d entries, %d of them reachable", sys.backup.n, backed)
	}
	if got, want := sys.dirCache.AppendState(nil, appendWord), ref.dirCache.AppendState(nil, appendWord); !bytes.Equal(got, want) {
		t.Fatal("directory cache contents differ from the reference's")
	}
}

func TestDirectoryMatchesWriteThrough(t *testing.T) {
	const addrs = 64
	spec := config.TableI(32).ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	for _, backing := range []Backing{MemoryBackup, DirEvictBit} {
		for _, entries := range []int{8, 16} {
			t.Run(fmt.Sprintf("backing=%d/entries=%d", backing, entries), func(t *testing.T) {
				sys := newBareSystem(t, backing, entries)
				ref := newWriteThroughDir(backing, entries, 2, spec.Cores, spec.DRAM)
				rng := rand.New(rand.NewSource(int64(entries) + int64(backing)*100))
				var now sim.Cycle
				for op := 0; op < 20000; op++ {
					now += sim.Cycle(rng.Intn(40))
					addr := coher.Addr(rng.Intn(addrs))
					switch r := rng.Intn(10); {
					case r < 4:
						got, gotT := sys.lookupSocketEntry(now, addr)
						want, wantT := ref.lookup(now, addr)
						if got != want || gotT != wantT {
							t.Fatalf("op %d: lookup(%#x) = %+v @%d, reference %+v @%d", op, uint64(addr), got, gotT, want, wantT)
						}
					case r < 7:
						e := randomSocketEntry(rng)
						sys.storeSocketEntry(now, addr, e)
						ref.store(now, addr, e)
					case r < 9:
						sys.storeSocketEntry(now, addr, coher.SocketEntry{})
						ref.store(now, addr, coher.SocketEntry{})
					default:
						if got, want := sys.peekSocketEntry(addr), ref.peek(addr); got != want {
							t.Fatalf("op %d: peek(%#x) = %+v, reference %+v", op, uint64(addr), got, want)
						}
					}
					if sys.stats != ref.stats {
						t.Fatalf("op %d: stats %+v, reference %+v", op, sys.stats, ref.stats)
					}
					if got, want := sys.dram.Stats(), ref.dram.Stats(); got != want {
						t.Fatalf("op %d: DRAM stats %+v, reference %+v", op, got, want)
					}
					checkOnePlace(t, sys, ref, addrs)
				}
				if sys.stats.DirCacheMisses == 0 {
					t.Fatal("no directory cache miss exercised")
				}
			})
		}
	}
}
