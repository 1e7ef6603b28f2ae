// Package cache provides a generic set-associative array with LRU or
// 1-bit NRU replacement. It is the storage substrate for the private L1
// and L2 caches, the sparse directory variants, the socket-level
// directory cache, and (with custom victim filtering) the shared LLC.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement bookkeeping an Array maintains.
type Policy uint8

const (
	// LRU is true least-recently-used replacement: one byte per line
	// holding a per-set use stamp and a demotion bit.
	LRU Policy = iota
	// NRU is 1-bit not-recently-used replacement, as in the paper's
	// baseline sparse directory (Table I).
	NRU
)

// MaxLRUWays is the widest associativity an LRU array ranks. A line's
// replacement byte holds a 7-bit use stamp numbered per set; when a set
// runs out of stamps its valid ways are re-ranked to 0..n-1, and the
// bound keeps n below 64, so at least 64 fresh stamps follow every
// re-rank. It also keeps AppendState's rank byte clear of its demotion
// bit. The paper's caches rank at most 16 ways.
const MaxLRUWays = 64

// Geometry describes a set-associative organization.
type Geometry struct {
	Sets int
	Ways int
}

// Blocks returns the total line count.
func (g Geometry) Blocks() int { return g.Sets * g.Ways }

// GeometryFor derives a geometry from a capacity in bytes, associativity,
// and line size, validating that the set count is a positive power of two.
func GeometryFor(capacityBytes, ways, lineBytes int) (Geometry, error) {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return Geometry{}, fmt.Errorf("cache: non-positive geometry parameter")
	}
	blocks := capacityBytes / lineBytes
	if blocks*lineBytes != capacityBytes {
		return Geometry{}, fmt.Errorf("cache: capacity %d not a multiple of line size %d", capacityBytes, lineBytes)
	}
	sets := blocks / ways
	if sets*ways != blocks {
		return Geometry{}, fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, ways)
	}
	if sets&(sets-1) != 0 || sets == 0 {
		return Geometry{}, fmt.Errorf("cache: set count %d is not a positive power of two", sets)
	}
	return Geometry{Sets: sets, Ways: ways}, nil
}

// MustGeometry is GeometryFor that panics on error; intended for
// configuration presets validated by tests.
func MustGeometry(capacityBytes, ways, lineBytes int) Geometry {
	g, err := GeometryFor(capacityBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// invalidTag marks an invalid way in the tag array. Tag matching is the
// hottest loop in the simulator, so invalid ways carry a sentinel tag no
// real block can produce (block addresses are bounded far below 2^64 by
// the workload address-space layout): the match loops need no separate
// valid check, and the sentinel is the only record of validity.
const invalidTag = ^uint64(0)

// Array is a set-associative array whose lines carry a payload of type T.
// The zero value is not usable; construct with New.
//
// Replacement state is one byte per line (rep). Under LRU the low seven
// bits are a use stamp numbered per set and bit 7 (notDemoted) is set
// unless the line is demoted, so the victim is the valid way with the
// smallest byte: demoted lines first, then the oldest stamp. Each touch
// takes the set's next stamp, so the valid stamps of a set are distinct
// and order the lines by their last touch. Under NRU the byte is the
// reference bit.
type Array[T any] struct {
	geo      Geometry
	policy   Policy
	tagShift uint8    // log2(Sets); Tag is a shift, not a division
	tags     []uint64 // invalidTag marks an invalid way
	rep      []uint8  // per-line replacement byte
	next     []uint8  // LRU: per-set next stamp; past stampMask the set re-ranks
	data     []T
	live     []int16 // valid-way count per set (O(1) full-set detection)
}

const (
	// stampMask selects an LRU line's per-set use stamp.
	stampMask = 0x7f
	// notDemoted is set on every LRU line that is not demoted, which
	// orders demoted lines before all others.
	notDemoted = 0x80
)

// New constructs an empty array. The set count must be a positive power
// of two: SetIndex has always masked with Sets-1, so this was an
// implicit requirement of every caller; it is now enforced. Ways must be
// positive and, under LRU, at most MaxLRUWays.
func New[T any](geo Geometry, policy Policy) *Array[T] {
	if geo.Sets <= 0 || geo.Sets&(geo.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", geo.Sets))
	}
	if geo.Ways <= 0 || policy == LRU && geo.Ways > MaxLRUWays {
		panic(fmt.Sprintf("cache: %d ways; an array needs at least 1 way and an LRU array at most MaxLRUWays (%d)",
			geo.Ways, MaxLRUWays))
	}
	n := geo.Blocks()
	a := &Array[T]{
		geo:      geo,
		policy:   policy,
		tagShift: uint8(bits.TrailingZeros64(uint64(geo.Sets))),
		tags:     make([]uint64, n),
		rep:      make([]uint8, n),
		data:     make([]T, n),
		live:     make([]int16, geo.Sets),
	}
	if policy == LRU {
		a.next = make([]uint8, geo.Sets)
	}
	for i := range a.tags {
		a.tags[i] = invalidTag
	}
	return a
}

// Geometry returns the array's organization.
func (a *Array[T]) Geometry() Geometry { return a.geo }

// SetIndex maps a block address to a set using the low-order index bits,
// the same index function the paper's LLC and spilled entries share.
func (a *Array[T]) SetIndex(blockAddr uint64) int {
	return int(blockAddr & uint64(a.geo.Sets-1))
}

// Tag returns the tag for a block address under this geometry. Sets is
// a power of two (enforced by New), so this is a shift rather than a
// 64-bit division on the Lookup/Probe hot path.
func (a *Array[T]) Tag(blockAddr uint64) uint64 {
	return blockAddr >> a.tagShift
}

// AddrOf reconstructs the block address stored in (set, way).
func (a *Array[T]) AddrOf(set, way int) uint64 {
	return a.tags[a.idx(set, way)]<<a.tagShift | uint64(set)
}

// TagAt returns the stored tag of (set, way) without reconstructing the
// full block address; hot paths that already know the set use it to
// compare identity against a precomputed tag.
func (a *Array[T]) TagAt(set, way int) uint64 {
	return a.tags[a.idx(set, way)]
}

// FindWays2 returns the first two valid ways of set holding tag, -1 for
// absent. A block occupies at most two ways of an LLC set (its data
// line plus its spilled directory entry), so two slots cover every
// caller; the scan is a single pass over the set with no per-way calls,
// which is why the LLC probe path uses it instead of Lookup.
func (a *Array[T]) FindWays2(set int, tag uint64) (w0, w1 int) {
	w0, w1 = -1, -1
	base := set * a.geo.Ways
	tags := a.tags[base : base+a.geo.Ways]
	for w := range tags {
		if tags[w] == tag {
			if w0 < 0 {
				w0 = w
			} else {
				w1 = w
				return
			}
		}
	}
	return
}

// FindWay returns the first valid way of set holding tag, or -1. It is
// the scan Lookup performs when the caller already has the set and tag.
func (a *Array[T]) FindWay(set int, tag uint64) int {
	base := set * a.geo.Ways
	tags := a.tags[base : base+a.geo.Ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

func (a *Array[T]) idx(set, way int) int { return set*a.geo.Ways + way }

// Lookup finds the way holding blockAddr in its set. It does not update
// replacement state; callers decide when an access counts as a use.
func (a *Array[T]) Lookup(blockAddr uint64) (set, way int, ok bool) {
	set = a.SetIndex(blockAddr)
	tag := a.Tag(blockAddr)
	base := set * a.geo.Ways
	tags := a.tags[base : base+a.geo.Ways]
	for w := range tags {
		if tags[w] == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Contains reports whether blockAddr is present.
func (a *Array[T]) Contains(blockAddr uint64) bool {
	_, _, ok := a.Lookup(blockAddr)
	return ok
}

// Touch marks (set, way) most recently used (LRU) or referenced (NRU).
// A touch rescinds any earlier demotion. Under LRU it stores the set's
// next stamp; a set that has run out of stamps is re-ranked first.
func (a *Array[T]) Touch(set, way int) {
	i := a.idx(set, way)
	switch a.policy {
	case LRU:
		s := a.next[set]
		if s > stampMask {
			s = a.rerank(set, way)
		}
		a.rep[i] = notDemoted | s
		a.next[set] = s + 1
	case NRU:
		a.rep[i] = 1
	}
}

// rerank renumbers the stamps of set's valid ways other than skip (the
// way being touched) to 0..n-1 in their current order, keeps their
// demotion bits, and returns n, the first free stamp. Every comparison
// Victim, VictimWhere and recencyRank make is between two valid ways'
// bytes, and renumbering in order preserves each one. The valid stamps
// are distinct, so a 128-bit occupancy mask ranks them without sorting:
// a way's new stamp is the count of occupied stamps below its own.
// Because n < MaxLRUWays, a set re-ranks at most once per 64 touches.
func (a *Array[T]) rerank(set, skip int) uint8 {
	base := set * a.geo.Ways
	tags := a.tags[base : base+a.geo.Ways]
	rep := a.rep[base : base+len(tags)]
	var occ [2]uint64
	for w, r := range rep {
		if w != skip && tags[w] != invalidTag {
			s := r & stampMask
			occ[s>>6] |= 1 << (s & 63)
		}
	}
	for w, r := range rep {
		if w == skip || tags[w] == invalidTag {
			continue
		}
		s := r & stampMask
		below := bits.OnesCount64(occ[0] & (1<<s - 1)) // all of occ[0] once s >= 64
		if s >= 64 {
			below += bits.OnesCount64(occ[1] & (1<<(s-64) - 1))
		}
		rep[w] = r&notDemoted | uint8(below)
	}
	return uint8(bits.OnesCount64(occ[0]) + bits.OnesCount64(occ[1]))
}

// Demote marks (set, way) a preferred victim: demoted lines are
// victimized before any non-demoted line in the set. Under LRU the
// line's use stamp is kept, so multiple demoted lines in a set retain
// their relative recency and leave oldest-first instead of collapsing
// to a way-index tie. ZeroDEV's directory-caching studies use this for
// replacement-priority experiments.
func (a *Array[T]) Demote(set, way int) {
	i := a.idx(set, way)
	switch a.policy {
	case LRU:
		a.rep[i] &^= notDemoted
	case NRU:
		a.rep[i] = 0
	}
}

// FreeWay returns an invalid way in set, or ok=false when the set is
// full. Full sets — the steady state of every cache in a running
// simulation — are answered in O(1) from the per-set live count.
func (a *Array[T]) FreeWay(set int) (way int, ok bool) {
	if int(a.live[set]) == a.geo.Ways {
		return -1, false
	}
	if w := a.FindWay(set, invalidTag); w >= 0 {
		return w, true
	}
	return -1, false
}

// Victim selects the replacement victim among the valid ways of set.
// The set must have at least one valid way. The LRU case is an open-coded
// scan (no eligibility callback) because the LLC allocates through here
// on every fill that misses a free way.
func (a *Array[T]) Victim(set int) int {
	if a.policy == LRU {
		base := set * a.geo.Ways
		tags := a.tags[base : base+a.geo.Ways]
		rep := a.rep[base : base+len(tags)]
		best, bestRep := -1, notDemoted<<1 // above every byte
		for w := range tags {
			if tags[w] != invalidTag && int(rep[w]) < bestRep {
				best, bestRep = w, int(rep[w])
			}
		}
		if best < 0 {
			panic("cache: Victim on set with no valid ways")
		}
		return best
	}
	w, ok := a.VictimWhere(set, func(int, *T) bool { return true })
	if !ok {
		panic("cache: Victim on set with no valid ways")
	}
	return w
}

// VictimWhere selects the replacement victim among valid ways satisfying
// eligible. Under LRU it is the eligible way with the smallest
// replacement byte: demoted lines before all others, then the oldest use
// stamp. Under NRU it is the first eligible way with a clear reference
// bit, clearing all bits first when every eligible way is referenced.
// The payload pointer passed to eligible is valid only for the duration
// of the call.
func (a *Array[T]) VictimWhere(set int, eligible func(way int, payload *T) bool) (way int, ok bool) {
	base := set * a.geo.Ways
	switch a.policy {
	case LRU:
		tags := a.tags[base : base+a.geo.Ways]
		rep := a.rep[base : base+len(tags)]
		best, bestRep := -1, notDemoted<<1
		for w := range tags {
			if tags[w] != invalidTag && int(rep[w]) < bestRep && eligible(w, &a.data[base+w]) {
				best, bestRep = w, int(rep[w])
			}
		}
		return best, best >= 0
	case NRU:
		any := false
		for pass := 0; pass < 2; pass++ {
			for w := 0; w < a.geo.Ways; w++ {
				i := base + w
				if a.tags[i] == invalidTag || !eligible(w, &a.data[i]) {
					continue
				}
				any = true
				if a.rep[i] == 0 {
					return w, true
				}
			}
			if !any {
				return -1, false
			}
			// All eligible ways referenced: clear and rescan.
			for w := 0; w < a.geo.Ways; w++ {
				i := base + w
				if a.tags[i] != invalidTag && eligible(w, &a.data[i]) {
					a.rep[i] = 0
				}
			}
		}
		return -1, false
	}
	return -1, false
}

// Insert fills (set, way) with blockAddr and its payload and marks it
// most recently used. The way may be valid (overwrite) or invalid.
func (a *Array[T]) Insert(set, way int, blockAddr uint64, payload T) {
	i := a.idx(set, way)
	if a.tags[i] == invalidTag {
		a.live[set]++
	}
	a.tags[i] = a.Tag(blockAddr)
	a.data[i] = payload
	a.Touch(set, way)
}

// Invalidate frees (set, way), zeroing its payload.
func (a *Array[T]) Invalidate(set, way int) {
	i := a.idx(set, way)
	if a.tags[i] != invalidTag {
		a.live[set]--
	}
	a.tags[i] = invalidTag
	var zero T
	a.data[i] = zero
}

// Payload returns a pointer to the payload at (set, way) for in-place
// mutation. The way must be valid.
func (a *Array[T]) Payload(set, way int) *T {
	i := a.idx(set, way)
	if a.tags[i] == invalidTag {
		panic("cache: Payload of invalid way")
	}
	return &a.data[i]
}

// ForEachValid calls fn for every valid line.
func (a *Array[T]) ForEachValid(fn func(set, way int, blockAddr uint64, payload *T)) {
	for set := 0; set < a.geo.Sets; set++ {
		base := set * a.geo.Ways
		for w := 0; w < a.geo.Ways; w++ {
			if a.tags[base+w] != invalidTag {
				fn(set, w, a.AddrOf(set, w), &a.data[base+w])
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array[T]) CountValid() int {
	n := 0
	for _, l := range a.live {
		n += int(l)
	}
	return n
}

// AppendState appends a canonical encoding of the array's
// protocol-visible state to buf: per set, per valid way in way order,
// the way index, tag, replacement metadata, and the payload via enc.
// LRU recency is encoded as the way's rank within its set (0 = oldest)
// rather than the absolute use stamp, so two arrays that victimize
// identically fingerprint identically no matter how many touches built
// their recency order. Used by the model checker to dedup revisited
// states; see DESIGN.md ("Model checking").
func (a *Array[T]) AppendState(buf []byte, enc func([]byte, *T) []byte) []byte {
	for set := 0; set < a.geo.Sets; set++ {
		base := set * a.geo.Ways
		for w := 0; w < a.geo.Ways; w++ {
			i := base + w
			if a.tags[i] == invalidTag {
				continue
			}
			buf = append(buf, byte(w))
			buf = appendUint64(buf, a.tags[i])
			switch a.policy {
			case LRU:
				rank := byte(a.recencyRank(set, w))
				if a.rep[i]&notDemoted == 0 {
					// The demotion mark outlives the current victim order (it
					// steers victim choice until the line is touched), so it is
					// protocol-visible state beyond the rank.
					rank |= 0x80
				}
				buf = append(buf, rank)
			case NRU:
				buf = append(buf, a.rep[i])
			}
			if enc != nil {
				buf = enc(buf, &a.data[i])
			}
		}
		buf = append(buf, 0xff) // set separator
	}
	return buf
}

// recencyRank counts the valid ways of set that the LRU policy would
// victimize before (set, way): those with a smaller replacement byte.
// The valid bytes of a set are distinct, so ranks never tie. O(ways) per
// line, fine at fingerprinting scale.
func (a *Array[T]) recencyRank(set, way int) int {
	base := set * a.geo.Ways
	self := a.rep[base+way]
	rank := 0
	for w := 0; w < a.geo.Ways; w++ {
		if i := base + w; a.tags[i] != invalidTag && a.rep[i] < self {
			rank++
		}
	}
	return rank
}

func appendUint64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
