package socket

import (
	"math/bits"

	"repro/internal/coher"
)

// entryTable maps block addresses to packed coher.SocketEntry words. It
// holds the MemoryBackup region's entries that the directory cache does
// not: an open-addressing table over two parallel slices, with no
// allocation per entry and no random hash seed, so its layout (and the
// heap it occupies) repeats exactly from run to run.
//
// Probing is linear in Robin Hood order: an entry that has travelled
// further from its home slot displaces one that has travelled less, so
// a lookup for an absent key stops as soon as it meets an entry closer
// to home than itself. Removal shifts the following run back one slot,
// leaving no tombstones. A key is stored as addr+1, so 0 marks an empty
// slot. The capacity is a power of two and doubles when more than 7/8
// of it is in use.
type entryTable struct {
	keys  []uint64 // addr+1; 0 is an empty slot
	vals  []uint64
	n     int
	shift uint // 64 - log2(len(keys))
}

const entryTableMinSlots = 16

// home returns the slot a key hashes to (Fibonacci multiply-shift).
func (t *entryTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// dist is how far slot i is from key's home slot, wrapping at the end.
func (t *entryTable) dist(key uint64, i int) int {
	return (i - t.home(key)) & (len(t.keys) - 1)
}

// probe walks key's run from its home slot. It returns key's slot, or
// the slot and distance at which a lookup for key stops, which is where
// key belongs.
func (t *entryTable) probe(key uint64) (i, d int, found bool) {
	if len(t.keys) == 0 {
		return 0, 0, false
	}
	mask := len(t.keys) - 1
	for i = t.home(key); ; i, d = (i+1)&mask, d+1 {
		k := t.keys[i]
		if k == key {
			return i, d, true
		}
		if k == 0 || t.dist(k, i) < d {
			return i, d, false
		}
	}
}

// get returns the word stored for addr.
func (t *entryTable) get(addr coher.Addr) (uint64, bool) {
	if i, _, ok := t.probe(uint64(addr) + 1); ok {
		return t.vals[i], true
	}
	return 0, false
}

// put stores w for addr, replacing any word already there.
func (t *entryTable) put(addr coher.Addr, w uint64) {
	key := uint64(addr) + 1
	i, d, ok := t.probe(key)
	if ok {
		t.vals[i] = w
		return
	}
	if (t.n+1)*8 > len(t.keys)*7 {
		t.grow()
		i, d = t.home(key), 0
	}
	t.insertAt(i, d, key, w)
	t.n++
}

// insertAt places a key the table does not hold, starting at slot i,
// distance d from its home, in Robin Hood order: it takes the first
// slot that is empty or holds an entry closer to its own home, and that
// entry moves on in its place.
func (t *entryTable) insertAt(i, d int, key, w uint64) {
	mask := len(t.keys) - 1
	for ; ; i, d = (i+1)&mask, d+1 {
		k := t.keys[i]
		if k == 0 {
			t.keys[i], t.vals[i] = key, w
			return
		}
		if kd := t.dist(k, i); kd < d {
			t.keys[i], key = key, k
			t.vals[i], w = w, t.vals[i]
			d = kd
		}
	}
}

// take removes addr and returns the word it held.
func (t *entryTable) take(addr coher.Addr) (uint64, bool) {
	i, _, ok := t.probe(uint64(addr) + 1)
	if !ok {
		return 0, false
	}
	w := t.vals[i]
	mask := len(t.keys) - 1
	for {
		j := (i + 1) & mask
		k := t.keys[j]
		if k == 0 || t.dist(k, j) == 0 {
			break
		}
		t.keys[i], t.vals[i] = k, t.vals[j]
		i = j
	}
	t.keys[i], t.vals[i] = 0, 0
	t.n--
	return w, true
}

// grow doubles the slot count (or makes the first slots) and reinserts
// every entry.
func (t *entryTable) grow() {
	keys, vals := t.keys, t.vals
	slots := 2 * len(keys)
	if slots == 0 {
		slots = entryTableMinSlots
	}
	t.keys, t.vals = make([]uint64, slots), make([]uint64, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	for i, k := range keys {
		if k != 0 {
			t.insertAt(t.home(k), 0, k, vals[i])
		}
	}
}

// forEach visits every entry in slot order.
func (t *entryTable) forEach(fn func(addr coher.Addr, w uint64)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(coher.Addr(k-1), t.vals[i])
		}
	}
}
