package core

import (
	"fmt"

	"repro/internal/coher"
)

// BlockLister is the optional CorePort extension the invariant checker
// uses to enumerate a core's resident blocks. *cpu.Core implements it.
type BlockLister interface {
	ForEachBlock(fn func(addr coher.Addr, state coher.PrivState))
}

type truth struct {
	owner    coher.CoreID
	hasOwner bool
	sharers  coher.CoreSet
	mixed    bool
}

// CheckInvariants cross-validates the coherence state against ground
// truth assembled from the private caches:
//
//   - at most one core owns a block, and an owner excludes sharers;
//   - every privately cached block has exactly one live directory entry
//     (sparse directory, LLC, or home-memory segment) whose state and
//     holder set match the private caches exactly;
//   - every live entry tracks at least one private copy;
//   - backend housing-form rules hold (FPSS: fused entries track M/E
//     blocks and a co-resident spilled entry tracks an S block; DLS:
//     housing is always fused);
//   - backends that do not house entries in the LLC never do.
//
// It is O(private blocks + directory entries) and intended for tests.
func (e *Engine) CheckInvariants() error {
	tr := make(map[coher.Addr]*truth)
	for i, cp := range e.cores {
		bl, ok := cp.(BlockLister)
		if !ok {
			return fmt.Errorf("core %d does not support block listing", i)
		}
		id := coher.CoreID(i)
		var err error
		bl.ForEachBlock(func(addr coher.Addr, st coher.PrivState) {
			t := tr[addr]
			if t == nil {
				t = &truth{}
				tr[addr] = t
			}
			switch st {
			case coher.PrivModified, coher.PrivExclusive:
				if t.hasOwner || !t.sharers.Empty() {
					t.mixed = true
				}
				t.hasOwner = true
				t.owner = id
			case coher.PrivShared:
				if t.hasOwner {
					t.mixed = true
				}
				t.sharers.Add(id)
			default:
				err = fmt.Errorf("block %#x cached in state %v at core %d", uint64(addr), st, id)
			}
		})
		if err != nil {
			return err
		}
	}

	for addr, t := range tr {
		if t.mixed {
			return fmt.Errorf("block %#x has an owner alongside other copies", uint64(addr))
		}
		ent, where, err := e.LocateEntry(addr)
		if err != nil {
			return err
		}
		if where == "" {
			return fmt.Errorf("block %#x is privately cached but has no directory entry", uint64(addr))
		}
		if t.hasOwner {
			if ent.State != coher.DirOwned || ent.Owner != t.owner {
				return fmt.Errorf("block %#x owned by core %d but %s entry is %v", uint64(addr), t.owner, where, ent)
			}
		} else {
			// An imprecise home-memory entry (coarse-compressed segment,
			// wide sockets only) legitimately tracks a superset of the
			// true sharers; everything else must match exactly.
			if ent.Imprecise && where == LocHomeMemory {
				if ent.State != coher.DirShared || !ent.Sharers.Superset(t.sharers) {
					return fmt.Errorf("block %#x shared by %v but imprecise %s entry %v is not a superset", uint64(addr), t.sharers, where, ent)
				}
			} else if ent.State != coher.DirShared || !ent.Sharers.Equal(t.sharers) {
				return fmt.Errorf("block %#x shared by %v but %s entry is %v", uint64(addr), t.sharers, where, ent)
			}
		}
	}

	// Every live on-socket entry must track real copies.
	var err error
	checkEntry := func(addr coher.Addr, ent coher.Entry, where string) {
		if err != nil {
			return
		}
		if !ent.Live() {
			err = fmt.Errorf("dead entry for %#x housed in %s", uint64(addr), where)
			return
		}
		if tr[addr] == nil {
			err = fmt.Errorf("%s entry for %#x tracks no privately cached block", where, uint64(addr))
		}
	}
	live, _ := e.dir.Occupancy()
	_ = live
	e.llc.ForEachDE(func(addr coher.Addr, fused bool, ent coher.Entry) {
		if !e.housesInLLC && err == nil {
			err = fmt.Errorf("baseline housed a directory entry in the LLC for %#x", uint64(addr))
			return
		}
		checkEntry(addr, ent, "LLC")
		if err != nil {
			return
		}
		// Backend-specific housing-form rules (FPSS spill/fuse
		// invariants, DLS fused-only housing).
		err = e.proto.CheckHoused(addr, fused, ent)
	})
	if err != nil {
		return err
	}
	return nil
}

// Entry locations reported by LocateEntry. A block's live entry must be
// in exactly one of them; "" means the block is untracked.
const (
	LocDirectory  = "directory"
	LocLLCSpilled = "LLC-spilled"
	LocLLCFused   = "LLC-fused"
	LocHomeMemory = "home-memory"
)

// LocateEntry finds the single live entry for addr across the sparse
// directory, the LLC (distinguishing spilled from fused housing), and
// this socket's home-memory segment. where is one of the Loc*
// constants, or "" when no location holds a live entry. A block tracked
// in more than one location is a protocol bug; the error names both
// locations uniformly as "block %#x tracked in both <first> and
// <second>".
func (e *Engine) LocateEntry(addr coher.Addr) (found coher.Entry, where string, err error) {
	claim := func(ent coher.Entry, loc string) error {
		if where != "" {
			return fmt.Errorf("block %#x tracked in both %s and %s", uint64(addr), where, loc)
		}
		found, where = ent, loc
		return nil
	}
	if ent, ok := e.dir.Lookup(addr); ok && ent.Live() {
		if err := claim(ent, LocDirectory); err != nil {
			return found, where, err
		}
	}
	if v := e.llc.Probe(addr); v.HasDE() {
		loc := LocLLCSpilled
		if v.Fused {
			loc = LocLLCFused
		}
		if err := claim(e.llc.Entry(v), loc); err != nil {
			return found, where, err
		}
	}
	if ent, ok := e.home.Segment(e.p.Socket, addr); ok {
		if err := claim(ent, LocHomeMemory); err != nil {
			return found, where, err
		}
	}
	return found, where, nil
}
