package coher

import "testing"

// FuzzSocketEntryPack round-trips socket-level entries through the packed
// word: every state, owners 0-55 and any 56-bit sharer set must survive
// Pack/UnpackSocketEntry unchanged, stale fields included.
func FuzzSocketEntryPack(f *testing.F) {
	f.Add(uint8(SockInvalid), uint8(0), uint64(0))
	f.Add(uint8(SockShared), uint8(0), uint64(1))
	f.Add(uint8(SockOwned), uint8(MaxPackedSockets-1), uint64(0))
	f.Add(uint8(SockCorrupted), uint8(MaxPackedSockets-1), uint64(1)<<(MaxPackedSockets-1))
	f.Add(uint8(SockShared), uint8(7), uint64(1)<<MaxPackedSockets-1)
	f.Fuzz(func(t *testing.T, state, owner uint8, sharers uint64) {
		e := SocketEntry{
			State:   SocketState(state % 4),
			Owner:   int(owner) % MaxPackedSockets,
			Sharers: SocketSet(sharers & (1<<MaxPackedSockets - 1)),
		}
		w := e.Pack()
		if got := UnpackSocketEntry(w); got != e {
			t.Fatalf("Unpack(Pack(%+v)) = %+v (word %#x)", e, got, w)
		}
		if (w == 0) != (e == SocketEntry{}) {
			t.Fatalf("Pack(%+v) = %#x: only the zero entry may pack to zero", e, w)
		}
	})
}

func TestSocketEntryPackRefusesWideFields(t *testing.T) {
	for _, e := range []SocketEntry{
		{State: SockOwned, Owner: 64},
		{State: SockOwned, Owner: -1},
		{State: SockShared, Sharers: 1 << MaxPackedSockets},
		{State: SockCorrupted + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pack(%+v) did not panic", e)
				}
			}()
			e.Pack()
		}()
	}
}
