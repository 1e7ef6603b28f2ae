package socket

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/workload"
)

// newBareSystem builds a system without running it, for directory-cache
// unit tests.
func newBareSystem(t testing.TB, backing Backing, dirEntries int) *System {
	t.Helper()
	pre := config.TableI(32)
	spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	p := DefaultParams(2, dirEntries)
	p.Backing = backing
	streams := make([]cpu.Stream, 2*spec.Cores)
	for i := range streams {
		streams[i] = workload.Threads(workload.MustGet("swaptions"), 1, 0, 32, 1)[0]
	}
	sys, err := New(p, spec, streams)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func sockOwned(s int) coher.SocketEntry {
	return coher.SocketEntry{State: coher.SockOwned, Owner: s}
}

func TestDirCacheMemoryBackupSurvivesEviction(t *testing.T) {
	// 8 entries, 8 ways: a single set. The ninth insert evicts silently;
	// the backup still answers.
	sys := newBareSystem(t, MemoryBackup, 8)
	for i := 0; i < 9; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), sockOwned(i%2))
	}
	for i := 0; i < 9; i++ {
		e, _ := sys.lookupSocketEntry(0, coher.Addr(i))
		if e.State != coher.SockOwned || e.Owner != i%2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if sys.Stats().DirCacheMisses == 0 {
		t.Fatal("expected a directory cache miss after eviction")
	}
}

func TestDirCacheDirEvictBitRoundTrip(t *testing.T) {
	sys := newBareSystem(t, DirEvictBit, 8)
	for i := 0; i < 9; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), sockOwned(i%2))
	}
	// One entry was evicted into its memory block's partition.
	bitSet := 0
	for i := 0; i < 9; i++ {
		if _, ok := sys.mem.DirEvict(coher.Addr(i)); ok {
			bitSet++
		}
	}
	if bitSet != 1 {
		t.Fatalf("DirEvict bits set = %d, want 1", bitSet)
	}
	// Lookups recover every entry, clearing the bit on refill.
	for i := 0; i < 9; i++ {
		e, _ := sys.lookupSocketEntry(0, coher.Addr(i))
		if e.State != coher.SockOwned || e.Owner != i%2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if sys.Stats().DirEvictBitHits == 0 {
		t.Fatal("DirEvict-bit path never taken")
	}
}

func TestDirCacheDeadStoreClears(t *testing.T) {
	for _, backing := range []Backing{MemoryBackup, DirEvictBit} {
		sys := newBareSystem(t, backing, 16)
		sys.storeSocketEntry(0, 5, sockOwned(1))
		sys.storeSocketEntry(0, 5, coher.SocketEntry{})
		if e := sys.peekSocketEntry(5); e.Live() {
			t.Fatalf("backing %d: dead store left %+v", backing, e)
		}
	}
}

func TestDirCacheOwnedEvictionPriority(t *testing.T) {
	// §III-D5: owned entries are preferred eviction victims, keeping the
	// shared (read-critical) ones cached.
	sys := newBareSystem(t, DirEvictBit, 8)
	shared := coher.SocketEntry{State: coher.SockShared}
	shared.Sharers.Add(0)
	shared.Sharers.Add(1)
	for i := 0; i < 7; i++ {
		sys.storeSocketEntry(0, coher.Addr(i), shared)
	}
	sys.storeSocketEntry(0, 7, sockOwned(0)) // the one owned entry
	sys.storeSocketEntry(0, 8, shared)       // forces an eviction
	if _, ok := sys.mem.DirEvict(7); !ok {
		t.Fatal("the owned entry should have been victimized first")
	}
}

func TestNewValidatesGeometry(t *testing.T) {
	pre := config.TableI(32)
	spec := pre.Baseline(1, llc.NonInclusive)
	if _, err := New(DefaultParams(2, 24), spec, nil); err == nil {
		t.Fatal("stream-count mismatch accepted")
	}
	p := DefaultParams(2, 24) // 3 sets: not a power of two
	streams := make([]cpu.Stream, 2*spec.Cores)
	for i := range streams {
		streams[i] = workload.Threads(workload.MustGet("swaptions"), 1, 0, 32, 1)[0]
	}
	if _, err := New(p, spec, streams); err == nil {
		t.Fatal("non-power-of-two directory cache accepted")
	}
}

func TestCheckSocketDirectoryIsDeterministic(t *testing.T) {
	// Two backup entries name a socket that holds nothing: the check must
	// report the lower address every time, not whichever the walk meets
	// first.
	sys := newBareSystem(t, MemoryBackup, 8)
	sys.backup.put(0x80, sockOwned(0).Pack())
	sys.backup.put(0x40, sockOwned(1).Pack())
	first := sys.CheckSocketDirectory()
	if first == nil || !strings.Contains(first.Error(), "0x40") {
		t.Fatalf("first violation = %v, want the one at 0x40", first)
	}
	for i := 0; i < 20; i++ {
		if err := sys.CheckSocketDirectory(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, first)
		}
	}
}

func TestCheckSocketDirectoryReportsPlantedState(t *testing.T) {
	// Each case plants one violation into a bare two-socket system; the
	// check must name its address and its kind.
	holds := func(sys *System, s int, addr coher.Addr) {
		sys.Sockets[s].Engine.LLC().InsertData(addr, false)
	}
	oneSharer := coher.SocketEntry{State: coher.SockShared}
	oneSharer.Sharers.Add(1)
	for _, tc := range []struct {
		name    string
		backing Backing
		plant   func(sys *System)
		addr    coher.Addr
		want    string // "" when the planted state is consistent
	}{
		{"consistent", MemoryBackup, func(sys *System) {
			holds(sys, 1, 0x40)
			sys.storeSocketEntry(0, 0x40, sockOwned(1))
		}, 0x40, ""},
		{"an LLC holds a block its entry omits", MemoryBackup, func(sys *System) {
			holds(sys, 1, 0x40)
			sys.storeSocketEntry(0, 0x40, sockOwned(1))
			holds(sys, 0, 0x40)
		}, 0x40, "socket 0 holds 0x40 but the socket dir entry"},
		{"an LLC holds a block with no entry", DirEvictBit, func(sys *System) {
			holds(sys, 1, 0x40)
		}, 0x40, "has no entry"},
		{"a Shared entry has one sharer", MemoryBackup, func(sys *System) {
			holds(sys, 1, 0x80)
			sys.storeSocketEntry(0, 0x80, oneSharer)
		}, 0x80, "Shared with 1 sharer"},
		{"a DirEvict partition names a socket holding nothing", DirEvictBit, func(sys *System) {
			sys.mem.SetDirEvict(0xc0, sockOwned(1))
		}, 0xc0, "but it holds nothing"},
		{"an entry is cached and in the backup", MemoryBackup, func(sys *System) {
			holds(sys, 1, 0x100)
			sys.storeSocketEntry(0, 0x100, sockOwned(1))
			sys.backup.put(0x100, sockOwned(1).Pack())
		}, 0x100, "both cached and in its backing store"},
		{"an entry is cached and in a DirEvict partition", DirEvictBit, func(sys *System) {
			holds(sys, 1, 0x100)
			sys.storeSocketEntry(0, 0x100, sockOwned(1))
			sys.mem.SetDirEvict(0x100, sockOwned(1))
		}, 0x100, "both cached and in its backing store"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newBareSystem(t, tc.backing, 8)
			if err := sys.CheckSocketDirectory(); err != nil {
				t.Fatalf("empty system: %v", err)
			}
			tc.plant(sys)
			err := sys.CheckSocketDirectory()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("consistent state reported: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", uint64(tc.addr))) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("check = %v, want a %q violation at %#x", err, tc.want, uint64(tc.addr))
			}
		})
	}
}
