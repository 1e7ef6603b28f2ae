package socket

import (
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
func newBareSystem(t *testing.T, backing Backing, dirEntries int) *System {
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
	// report the lower address every time, not whichever the map yields.
	sys := newBareSystem(t, MemoryBackup, 8)
	sys.backup = map[coher.Addr]uint64{0x40: sockOwned(1).Pack(), 0x80: sockOwned(0).Pack()}
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
