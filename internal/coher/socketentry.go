package coher

import (
	"errors"
	"fmt"
	"math/bits"
)

// SocketSet is a sharer bit-vector over sockets. Socket counts are small
// (the paper evaluates four, the scale frontier sixteen), so a single
// word suffices; a packed SocketEntry keeps MaxPackedSockets of its bits.
type SocketSet uint64

// Add inserts socket s.
func (v *SocketSet) Add(s int) { *v |= 1 << s }

// Remove deletes socket s.
func (v *SocketSet) Remove(s int) { *v &^= 1 << s }

// Contains reports membership.
func (v SocketSet) Contains(s int) bool { return v&(1<<s) != 0 }

// Count returns the number of member sockets.
func (v SocketSet) Count() int { return bits.OnesCount64(uint64(v)) }

// Empty reports whether the set has no members.
func (v SocketSet) Empty() bool { return v == 0 }

// First returns the lowest member; panics on empty.
func (v SocketSet) First() int {
	if v == 0 {
		panic("coher: First on empty SocketSet")
	}
	return bits.TrailingZeros64(uint64(v))
}

// ForEach visits members in ascending order.
func (v SocketSet) ForEach(fn func(int)) {
	w := uint64(v)
	for w != 0 {
		b := bits.TrailingZeros64(w)
		fn(b)
		w &^= 1 << b
	}
}

// SocketState is the state of a socket-level directory entry. The paper
// encodes three stable states in two bits and uses the fourth encoding
// for Corrupted (home memory block holds directory entries, not data).
type SocketState uint8

const (
	// SockInvalid: no socket caches the block.
	SockInvalid SocketState = iota
	// SockShared: one or more sockets hold the block read-only.
	SockShared
	// SockOwned: one socket owns the block (M/E).
	SockOwned
	// SockCorrupted: the home memory copy has been overwritten by one or
	// more evicted intra-socket directory entries; the sharer vector still
	// records which sockets hold copies.
	SockCorrupted
)

// String implements fmt.Stringer.
func (s SocketState) String() string {
	switch s {
	case SockInvalid:
		return "I"
	case SockShared:
		return "S"
	case SockOwned:
		return "M/E"
	case SockCorrupted:
		return "Corrupted"
	}
	return "SocketState(?)"
}

// SocketEntry is a socket-level directory entry for inter-socket
// coherence.
type SocketEntry struct {
	State   SocketState
	Owner   int
	Sharers SocketSet
}

// Holders returns the sockets holding a copy regardless of state. In the
// Corrupted state the sharer vector is authoritative (the state before
// corruption is folded into it).
func (e SocketEntry) Holders() SocketSet {
	switch e.State {
	case SockOwned:
		var v SocketSet
		v.Add(e.Owner)
		return v
	case SockShared, SockCorrupted:
		return e.Sharers
	}
	return 0
}

// Live reports whether any socket holds a copy.
func (e SocketEntry) Live() bool { return e.State != SockInvalid }

// MaxPackedSockets is the widest socket count a packed SocketEntry can
// describe: its 64-bit word spends 2 bits on the state and 6 on the
// owner, leaving 56 sharer bits.
const MaxPackedSockets = 56

// ErrTooManySockets refuses a socket count beyond MaxPackedSockets.
var ErrTooManySockets = errors.New("socket count exceeds the socket-level sharer vector")

// Pack encodes e in one word: bits 0-1 hold the state, bits 2-7 the
// owner, bits 8-63 the sharer vector. UnpackSocketEntry inverts it
// exactly, stale fields included. Pack panics on an owner or sharer at
// or beyond the layout's width; systems with more than MaxPackedSockets
// sockets are refused at construction, so a live run never trips it.
func (e SocketEntry) Pack() uint64 {
	if e.State > SockCorrupted || uint(e.Owner) >= 1<<6 || e.Sharers>>MaxPackedSockets != 0 {
		panic(fmt.Sprintf("coher: socket entry %+v does not fit the packed layout", e))
	}
	return uint64(e.State) | uint64(e.Owner)<<2 | uint64(e.Sharers)<<8
}

// UnpackSocketEntry decodes a word written by Pack. The zero word is the
// zero (invalid) entry.
func UnpackSocketEntry(w uint64) SocketEntry {
	return SocketEntry{State: SocketState(w & 3), Owner: int(w >> 2 & 63), Sharers: SocketSet(w >> 8)}
}

// StorageBitsSocket is the home-memory partition size for an evicted
// socket-level entry in an M-socket system: M sharer bits plus two state
// bits (paper §III-D5, solution 2).
func StorageBitsSocket(sockets int) int { return sockets + 2 }
