package mem

import (
	"errors"
	"testing"

	"repro/internal/coher"
)

func owned(c coher.CoreID) coher.Entry {
	return coher.Entry{State: coher.DirOwned, Owner: c}
}

func TestSegmentLifecycle(t *testing.T) {
	m := MustNew(4, 8)
	addr := coher.Addr(0x100)
	if m.Corrupted(addr) {
		t.Fatal("fresh block corrupted")
	}
	if err := m.WriteSegment(addr, 1, owned(3)); err != nil {
		t.Fatal(err)
	}
	if !m.Corrupted(addr) {
		t.Fatal("block must be corrupted after WB_DE")
	}
	e, ok := m.ReadSegment(addr, 1)
	if !ok || e.Owner != 3 {
		t.Fatalf("segment = %+v ok=%v", e, ok)
	}
	if _, ok := m.ReadSegment(addr, 2); ok {
		t.Fatal("other sockets' segments must be empty")
	}
	// Extracting the entry leaves the data lost.
	m.ClearSegment(addr, 1)
	if !m.Corrupted(addr) {
		t.Fatal("data must remain lost after segment extraction")
	}
	if got := m.CorruptedSockets(addr); !got.Empty() {
		t.Fatalf("corrupted sockets = %v", got)
	}
	// Only a full-block writeback restores the memory copy.
	m.Restore(addr)
	if m.Corrupted(addr) {
		t.Fatal("restore failed")
	}
	if m.CorruptedCount() != 0 {
		t.Fatal("metadata not garbage-collected")
	}
}

func TestWriteSegmentValidation(t *testing.T) {
	m := MustNew(2, 8)
	if err := m.WriteSegment(1, 0, coher.Entry{}); err == nil {
		t.Fatal("dead entry accepted")
	}
	if err := m.WriteSegment(1, 0, coher.Entry{State: coher.DirOwned, Busy: true}); err == nil {
		t.Fatal("busy entry accepted")
	}
	if err := m.WriteSegment(1, 5, owned(0)); err == nil {
		t.Fatal("out-of-range socket accepted")
	}
}

func TestDirEvictBit(t *testing.T) {
	m := MustNew(4, 8)
	addr := coher.Addr(0x42)
	if _, ok := m.DirEvict(addr); ok {
		t.Fatal("fresh block has DirEvict set")
	}
	se := coher.SocketEntry{State: coher.SockShared}
	se.Sharers.Add(2)
	m.SetDirEvict(addr, se)
	got, ok := m.DirEvict(addr)
	if !ok || !got.Sharers.Contains(2) {
		t.Fatalf("DirEvict = %+v ok=%v", got, ok)
	}
	m.ClearDirEvict(addr)
	if _, ok := m.DirEvict(addr); ok {
		t.Fatal("ClearDirEvict failed")
	}
}

// TestDirEvictPackedRoundTrip stores socket-level entries through the
// packed DirEvict partition at 1, 4 and 56 sockets (the widest a packed
// entry holds): every state, the highest owner and sharer the system
// has, and stale fields beside the state, all of which DirEvict must
// return exactly. AppendState still writes the unpacked state, owner
// and sharer bytes.
func TestDirEvictPackedRoundTrip(t *testing.T) {
	for _, sockets := range []int{1, 4, coher.MaxPackedSockets} {
		m := MustNew(sockets, 4)
		top := sockets - 1
		var all coher.SocketSet
		for s := 0; s < sockets; s++ {
			all.Add(s)
		}
		entries := []coher.SocketEntry{
			{State: coher.SockShared, Sharers: all},
			{State: coher.SockOwned, Owner: top},
			{State: coher.SockCorrupted, Owner: top, Sharers: all},
			{State: coher.SockInvalid, Owner: top / 2, Sharers: 1 << top},
		}
		for i, e := range entries {
			addr := coher.Addr(0x40 + i)
			m.SetDirEvict(addr, e)
			got, ok := m.DirEvict(addr)
			if !ok || got != e {
				t.Fatalf("%d sockets: DirEvict = %+v ok=%v, want %+v", sockets, got, ok, e)
			}
			one := MustNew(sockets, 4)
			one.SetDirEvict(addr, e)
			want := []byte{byte(addr), byte(addr >> 8), 0, 0, 0, 0, 0, 0, 2}
			for s := 0; s < sockets; s++ {
				want = (coher.Entry{}).AppendCanonical(want)
			}
			sh := uint64(e.Sharers)
			want = append(want, byte(e.State), byte(e.Owner),
				byte(sh), byte(sh>>8), byte(sh>>16), byte(sh>>24),
				byte(sh>>32), byte(sh>>40), byte(sh>>48), byte(sh>>56))
			if got := one.AppendState(nil); string(got) != string(want) {
				t.Fatalf("%d sockets, entry %+v: AppendState = %x, want %x", sockets, e, got, want)
			}
		}
		for i := range entries {
			m.ClearDirEvict(coher.Addr(0x40 + i))
		}
		if m.MetaLive() != 0 {
			t.Fatalf("%d sockets: %d blocks keep metadata after ClearDirEvict", sockets, m.MetaLive())
		}
	}
}

func TestSocketBoundEnforced(t *testing.T) {
	// 128 cores/socket: at most 3 sockets fit the full-map partitioning.
	m, err := New(3, 128)
	if err != nil {
		t.Fatalf("3 sockets of 128 cores must fit: %v", err)
	}
	if m.SegmentBudget() != 0 {
		t.Fatalf("full-map shape got compressed budget %d", m.SegmentBudget())
	}
	// Beyond the full-map bound the compressed hybrid takes over:
	// 4 sockets of 128 cores get ⌊510/4⌋−4 = 123 holder bits each.
	m, err = New(4, 128)
	if err != nil {
		t.Fatalf("4 sockets of 128 cores must fall back to compressed segments: %v", err)
	}
	if got := m.SegmentBudget(); got != 123 {
		t.Fatalf("compressed budget = %d, want 123", got)
	}
	// Shapes whose budget cannot hold one core pointer are refused with
	// the named error.
	if _, err := New(64, 256); !errorsIs(err, ErrUnrepresentable) {
		t.Fatalf("64×256 err = %v, want ErrUnrepresentable", err)
	}
}

func errorsIs(err, target error) bool { return err != nil && errors.Is(err, target) }

func TestCompressedSegmentsImprecise(t *testing.T) {
	// 16 sockets × 64 cores: budget ⌊510/16⌋−4 = 27 bits, so up to four
	// 6-bit pointers stay precise and wider sharer sets coarsen.
	m := MustNew(16, 64)
	if got := m.SegmentBudget(); got != 27 {
		t.Fatalf("budget = %d, want 27", got)
	}
	addr := coher.Addr(0x200)

	// Owned entries are always precise.
	if err := m.WriteSegment(addr, 3, owned(63)); err != nil {
		t.Fatal(err)
	}
	e, ok := m.ReadSegment(addr, 3)
	if !ok || e.Imprecise || e.Owner != 63 {
		t.Fatalf("owned segment = %+v ok=%v", e, ok)
	}

	// Four sharers fit the limited-pointer format exactly.
	var small coher.Entry
	small.State = coher.DirShared
	for _, c := range []coher.CoreID{0, 17, 40, 63} {
		small.Sharers.Add(c)
	}
	if err := m.WriteSegment(addr, 4, small); err != nil {
		t.Fatal(err)
	}
	e, _ = m.ReadSegment(addr, 4)
	if e.Imprecise || !e.Sharers.Equal(small.Sharers) {
		t.Fatalf("limited-pointer segment = %+v", e)
	}
	if m.CoarseSegmentWrites() != 0 {
		t.Fatal("precise writes counted as coarse")
	}

	// Ten sharers exceed the pointer budget: the decode is a marked
	// superset.
	var wide coher.Entry
	wide.State = coher.DirShared
	for c := coher.CoreID(0); c < 60; c += 6 {
		wide.Sharers.Add(c)
	}
	if err := m.WriteSegment(addr, 5, wide); err != nil {
		t.Fatal(err)
	}
	e, _ = m.ReadSegment(addr, 5)
	if !e.Imprecise || !e.Sharers.Superset(wide.Sharers) {
		t.Fatalf("coarse segment = %+v, want imprecise superset of %v", e, wide.Sharers)
	}
	if m.CoarseSegmentWrites() != 1 {
		t.Fatalf("coarse writes = %d, want 1", m.CoarseSegmentWrites())
	}
}

// TestWideOwnedSegmentAllocatesNothing: rewriting a wide block's
// segment with an entry owned by a core at or above 128, whose holder
// set would need a CoreSet extension, allocates nothing and stores the
// entry unchanged.
func TestWideOwnedSegmentAllocatesNothing(t *testing.T) {
	m := MustNew(4, 256)
	if m.SegmentBudget() == 0 {
		t.Fatal("4 x 256 uses full-map segments")
	}
	addr := coher.Addr(0x300)
	for _, c := range []coher.CoreID{128, 200, 255} {
		e := owned(c)
		if err := m.WriteSegment(addr, 2, e); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := m.WriteSegment(addr, 2, e); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("rewriting a segment owned by core %d allocates %v times", c, n)
		}
		if got, ok := m.ReadSegment(addr, 2); !ok || !got.Same(e) || got.Imprecise {
			t.Fatalf("segment owned by core %d = %+v ok=%v, want %+v", c, got, ok, e)
		}
	}
	if m.CoarseSegmentWrites() != 0 {
		t.Fatal("owned writes counted as coarse")
	}
}

func TestMetaHighWaterAndRetire(t *testing.T) {
	m := MustNew(2, 8)
	for i := 0; i < 10; i++ {
		addr := coher.Addr(0x1000 + i*64)
		if err := m.WriteSegment(addr, 0, owned(1)); err != nil {
			t.Fatal(err)
		}
		m.Restore(addr) // last copy retires the metadata
		if m.MetaLive() != 0 {
			t.Fatalf("block %d not retired, live=%d", i, m.MetaLive())
		}
	}
	if m.MetaHighWater() != 1 {
		t.Fatalf("high water = %d, want 1 (retire-on-last-copy)", m.MetaHighWater())
	}
}

func TestForEachCorrupted(t *testing.T) {
	m := MustNew(2, 8)
	_ = m.WriteSegment(1, 0, owned(1))
	_ = m.WriteSegment(2, 1, owned(2))
	m.Restore(2)
	n := 0
	m.ForEachCorrupted(func(addr coher.Addr, b *BlockMeta) { n++ })
	if n != 1 {
		t.Fatalf("corrupted count = %d, want 1", n)
	}
}

func TestForEachDirEvict(t *testing.T) {
	m := MustNew(4, 8)
	want := map[coher.Addr]coher.SocketEntry{
		0x10: {State: coher.SockOwned, Owner: 3},
		0x20: {State: coher.SockShared, Sharers: 0b0101},
	}
	for a, e := range want {
		m.SetDirEvict(a, e)
	}
	m.SetDirEvict(0x30, coher.SocketEntry{State: coher.SockOwned, Owner: 1})
	m.ClearDirEvict(0x30)
	_ = m.WriteSegment(0x40, 0, owned(1)) // corrupted, no partition
	got := map[coher.Addr]coher.SocketEntry{}
	m.ForEachDirEvict(func(a coher.Addr, e coher.SocketEntry) { got[a] = e })
	if len(got) != len(want) || got[0x10] != want[0x10] || got[0x20] != want[0x20] {
		t.Fatalf("ForEachDirEvict visited %+v, want %+v", got, want)
	}
}

func TestRetiredMetadataReusedClean(t *testing.T) {
	// A block whose metadata gc dropped hands its BlockMeta to the next
	// block that gains metadata; nothing of the old block may show
	// through, and the pair allocates nothing.
	m := MustNew(2, 8)
	m.SetDirEvict(0x10, coher.SocketEntry{State: coher.SockOwned, Owner: 1})
	_ = m.WriteSegment(0x20, 1, owned(3))
	m.Restore(0x20)
	m.ClearDirEvict(0x10)
	m.SetDirEvict(0x30, coher.SocketEntry{State: coher.SockOwned, Owner: 0})
	if err := m.WriteSegment(0x40, 0, owned(2)); err != nil {
		t.Fatal(err)
	}
	if m.Corrupted(0x30) || !m.Corrupted(0x40) {
		t.Fatal("reused metadata carried the data-lost flag across blocks")
	}
	if _, ok := m.ReadSegment(0x40, 1); ok {
		t.Fatal("reused metadata carried a segment across blocks")
	}
	if _, ok := m.DirEvict(0x40); ok {
		t.Fatal("reused metadata carried a DirEvict partition across blocks")
	}
	fresh := MustNew(2, 8)
	fresh.SetDirEvict(0x30, coher.SocketEntry{State: coher.SockOwned, Owner: 0})
	_ = fresh.WriteSegment(0x40, 0, owned(2))
	if got, want := m.AppendState(nil), fresh.AppendState(nil); string(got) != string(want) {
		t.Fatal("state with reused metadata differs from the same state built fresh")
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.ClearDirEvict(0x30)
		m.SetDirEvict(0x50, coher.SocketEntry{State: coher.SockOwned, Owner: 1})
		m.ClearDirEvict(0x50)
		m.SetDirEvict(0x30, coher.SocketEntry{State: coher.SockOwned, Owner: 0})
	})
	if allocs != 0 {
		t.Fatalf("moving a DirEvict partition between blocks allocates %v times", allocs)
	}
}
