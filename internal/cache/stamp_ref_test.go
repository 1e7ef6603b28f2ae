package cache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// stampArray is the replacement bookkeeping Array used before per-set
// byte stamps: an array-wide 64-bit use tick stamped on every touch, a
// demotion bool per line under LRU, and a reference bool per line under
// NRU. It is kept here only as the reference the byte-stamp Array must
// match victim for victim and fingerprint for fingerprint.
type stampArray struct {
	geo    Geometry
	policy Policy
	tags   []uint64
	use    []uint64
	demo   []bool
	ref    []bool
	tick   uint64
}

func newStampArray(geo Geometry, policy Policy) *stampArray {
	n := geo.Blocks()
	r := &stampArray{geo: geo, policy: policy, tags: make([]uint64, n),
		use: make([]uint64, n), demo: make([]bool, n), ref: make([]bool, n)}
	for i := range r.tags {
		r.tags[i] = invalidTag
	}
	return r
}

func (r *stampArray) tag(addr uint64) uint64 { return addr / uint64(r.geo.Sets) }

func (r *stampArray) lookup(addr uint64) (set, way int, ok bool) {
	set, tag := int(addr%uint64(r.geo.Sets)), r.tag(addr)
	for w := 0; w < r.geo.Ways; w++ {
		if r.tags[set*r.geo.Ways+w] == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

func (r *stampArray) touch(set, way int) {
	i := set*r.geo.Ways + way
	switch r.policy {
	case LRU:
		r.tick++
		r.use[i] = r.tick
		r.demo[i] = false
	case NRU:
		r.ref[i] = true
	}
}

func (r *stampArray) demote(set, way int) {
	i := set*r.geo.Ways + way
	switch r.policy {
	case LRU:
		r.demo[i] = true
	case NRU:
		r.ref[i] = false
	}
}

func (r *stampArray) freeWay(set int) (int, bool) {
	for w := 0; w < r.geo.Ways; w++ {
		if r.tags[set*r.geo.Ways+w] == invalidTag {
			return w, true
		}
	}
	return -1, false
}

func (r *stampArray) victimWhere(set int, eligible func(way int) bool) (int, bool) {
	base := set * r.geo.Ways
	switch r.policy {
	case LRU:
		best, bestUse, bestDemo := -1, ^uint64(0), false
		for w := 0; w < r.geo.Ways; w++ {
			i := base + w
			if r.tags[i] == invalidTag || !eligible(w) {
				continue
			}
			older := r.use[i] < bestUse
			if r.demo[i] != bestDemo {
				older = r.demo[i]
			}
			if older {
				best, bestUse, bestDemo = w, r.use[i], r.demo[i]
			}
		}
		return best, best >= 0
	case NRU:
		any := false
		for pass := 0; pass < 2; pass++ {
			for w := 0; w < r.geo.Ways; w++ {
				i := base + w
				if r.tags[i] == invalidTag || !eligible(w) {
					continue
				}
				any = true
				if !r.ref[i] {
					return w, true
				}
			}
			if !any {
				return -1, false
			}
			for w := 0; w < r.geo.Ways; w++ {
				i := base + w
				if r.tags[i] != invalidTag && eligible(w) {
					r.ref[i] = false
				}
			}
		}
	}
	return -1, false
}

func (r *stampArray) insert(set, way int, addr uint64) {
	r.tags[set*r.geo.Ways+way] = r.tag(addr)
	r.touch(set, way)
}

func (r *stampArray) invalidate(set, way int) {
	i := set*r.geo.Ways + way
	r.tags[i] = invalidTag
	r.use[i], r.demo[i], r.ref[i] = 0, false, false
}

// appendState is the old AppendState without payloads: LRU ranks count
// demoted-first, then older stamps, then equal stamps at lower ways.
func (r *stampArray) appendState(buf []byte) []byte {
	for set := 0; set < r.geo.Sets; set++ {
		base := set * r.geo.Ways
		for w := 0; w < r.geo.Ways; w++ {
			i := base + w
			if r.tags[i] == invalidTag {
				continue
			}
			buf = append(buf, byte(w))
			buf = appendUint64(buf, r.tags[i])
			switch r.policy {
			case LRU:
				rank := byte(0)
				for v := 0; v < r.geo.Ways; v++ {
					j := base + v
					if v == w || r.tags[j] == invalidTag {
						continue
					}
					if r.demo[j] != r.demo[i] {
						if r.demo[j] {
							rank++
						}
						continue
					}
					if r.use[j] < r.use[i] || (r.use[j] == r.use[i] && v < w) {
						rank++
					}
				}
				if r.demo[i] {
					rank |= 0x80
				}
				buf = append(buf, rank)
			case NRU:
				if r.ref[i] {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
		buf = append(buf, 0xff)
	}
	return buf
}

// TestMatchesStampReference drives the byte-stamp Array and the old
// 64-bit stamp implementation in lockstep through random Lookup, Touch,
// Insert, Victim, VictimWhere, Demote and Invalidate operations on four
// sets, at every associativity from direct-mapped to MaxLRUWays. Every
// lookup and victim must agree, and so must the AppendState bytes,
// compared periodically. Touch-heavy streams on four sets run each set
// through hundreds of re-rank epochs, so a re-rank that reorders lines or
// drops a demotion bit shows up as a diverging victim or fingerprint.
func TestMatchesStampReference(t *testing.T) {
	seeds, ops := 20, 200_000
	if testing.Short() {
		seeds, ops = 2, 20_000
	}
	for _, policy := range []Policy{LRU, NRU} {
		for _, ways := range []int{1, 2, 8, 12, 16, MaxLRUWays} {
			for seed := 1; seed <= seeds; seed++ {
				name := fmt.Sprintf("%s/%dways/seed%d", [...]string{LRU: "LRU", NRU: "NRU"}[policy], ways, seed)
				if err := lockstep(Geometry{Sets: 4, Ways: ways}, policy, uint64(seed), ops); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// lockstep runs one random operation stream against both arrays and
// reports the first disagreement. Addresses cover twice the array's
// capacity so fills conflict; payloads mark odd addresses as directory
// lines for the LLC-style data-only predicate.
func lockstep(geo Geometry, policy Policy, seed uint64, ops int) error {
	a := New[uint64](geo, policy)
	r := newStampArray(geo, policy)
	rng := sim.NewRNG(seed)
	span := 2 * geo.Blocks()
	var got, want []byte
	for op := 0; op < ops; op++ {
		addr := uint64(rng.Intn(span))
		set, way, ok := a.Lookup(addr)
		rset, rway, rok := r.lookup(addr)
		if set != rset || way != rway || ok != rok {
			return fmt.Errorf("op %d: Lookup(%d) = (%d,%d,%v), reference (%d,%d,%v)", op, addr, set, way, ok, rset, rway, rok)
		}
		switch k := rng.Intn(16); {
		case k < 6: // access: touch a hit, fill a miss
			if ok {
				a.Touch(set, way)
				r.touch(set, way)
				break
			}
			w, free := a.FreeWay(set)
			rw, rfree := r.freeWay(set)
			if w != rw || free != rfree {
				return fmt.Errorf("op %d: FreeWay(%d) = (%d,%v), reference (%d,%v)", op, set, w, free, rw, rfree)
			}
			if !free {
				w = a.Victim(set)
				if rw, _ = r.victimWhere(set, func(int) bool { return true }); w != rw {
					return fmt.Errorf("op %d: Victim(%d) = %d, reference %d", op, set, w, rw)
				}
			}
			a.Insert(set, w, addr, addr)
			r.insert(set, w, addr)
		case k < 10: // LLC-style filtered victim: data lines, never the pinned block
			pin := a.Tag(addr)
			w, vok := a.VictimWhere(set, func(way int, p *uint64) bool { return *p%2 == 0 && a.TagAt(set, way) != pin })
			rw, rvok := r.victimWhere(set, func(way int) bool {
				i := set*geo.Ways + way
				return (r.tags[i]*uint64(geo.Sets)+uint64(set))%2 == 0 && r.tags[i] != pin
			})
			if w != rw || vok != rvok {
				return fmt.Errorf("op %d: VictimWhere(%d) = (%d,%v), reference (%d,%v)", op, set, w, vok, rw, rvok)
			}
			if vok && !ok && rng.Intn(2) == 0 {
				a.Insert(set, w, addr, addr)
				r.insert(set, w, addr)
			}
		case k < 13:
			if ok {
				a.Demote(set, way)
				r.demote(set, way)
			}
		default:
			if ok {
				a.Invalidate(set, way)
				r.invalidate(set, way)
			}
		}
		if op%4096 == 0 || op == ops-1 {
			got = a.AppendState(got[:0], nil)
			want = r.appendState(want[:0])
			if !bytes.Equal(got, want) {
				return fmt.Errorf("op %d: AppendState differs\n got %x\nwant %x", op, got, want)
			}
		}
	}
	return nil
}
