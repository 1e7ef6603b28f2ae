package coher

import "fmt"

// This file implements the compressed directory-entry representations
// the paper sketches for scaling past the full-map socket bound
// (§III-D: "a hybrid of limited-pointer and coarse-vector formats can
// dynamically choose between precise and imprecise representations
// depending on the sharer count"). The hybrid picks, per entry and
// within a fixed bit budget:
//
//   - a full map when the budget covers every core (always precise);
//   - limited pointers when the holder count fits (precise);
//   - a coarse vector otherwise (imprecise: each bit stands for a group
//     of cores, so decoding yields a superset and imprecise entries
//     cost extra invalidations).

// SharerFormat identifies the representation chosen by the hybrid.
type SharerFormat uint8

const (
	// FormatFullMap is the exact bit-vector.
	FormatFullMap SharerFormat = iota
	// FormatLimitedPtr stores up to P core IDs exactly.
	FormatLimitedPtr
	// FormatCoarse stores a bit per group of cores (imprecise).
	FormatCoarse
)

// String implements fmt.Stringer.
func (f SharerFormat) String() string {
	switch f {
	case FormatFullMap:
		return "full-map"
	case FormatLimitedPtr:
		return "limited-pointer"
	case FormatCoarse:
		return "coarse-vector"
	}
	return "SharerFormat(?)"
}

// Compressed is a directory entry's holder set packed into a fixed bit
// budget.
type Compressed struct {
	Format SharerFormat
	Budget int // holder-representation bits
	Cores  int
	State  DirState
	// payload is the holder set itself for the full-map and
	// limited-pointer formats (pointers decode to exactly the cores they
	// name), and one bit per group of cores for the coarse format.
	payload CoreSet
}

// Compress packs entry e's holder set into budget bits for an N-core
// socket. The budget must accommodate at least one pointer.
func Compress(e Entry, cores, budget int) (Compressed, error) {
	if !e.Live() {
		return Compressed{}, fmt.Errorf("coher: compressing a dead entry")
	}
	if cores <= 0 || cores > MaxRepresentableCores {
		return Compressed{}, fmt.Errorf("coher: bad core count %d", cores)
	}
	ptrBits := ceilLog2(cores)
	if ptrBits == 0 {
		ptrBits = 1
	}
	if budget < ptrBits {
		return Compressed{}, fmt.Errorf("coher: budget %d below one pointer (%d bits)", budget, ptrBits)
	}
	c := Compressed{Budget: budget, Cores: cores, State: e.State}
	holders := e.Holders()

	if cores <= budget {
		c.Format = FormatFullMap
		c.payload = holders
		return c, nil
	}
	if p := budget / ptrBits; holders.Count() <= p {
		c.Format = FormatLimitedPtr
		c.payload = holders
		return c, nil
	}
	c.Format = FormatCoarse
	c.payload = coarsen(holders, groupSize(cores, budget))
	return c, nil
}

// coarsen maps a holder set to its coarse vector, bit i standing for
// cores [i*g, (i+1)*g). The extension is allocated once, at its final
// length.
func coarsen(holders CoreSet, g int) CoreSet {
	var s CoreSet
	if holders.Empty() {
		return s
	}
	s.sizeFor(int(holders.last()) / g)
	holders.ForEach(func(id CoreID) {
		grp := int(id) / g
		s.setRange(grp, grp+1)
	})
	return s
}

// groupSize is the cores-per-bit granularity of the coarse vector.
func groupSize(cores, budget int) int {
	g := (cores + budget - 1) / budget
	if g < 1 {
		g = 1
	}
	return g
}

// Precise reports whether decoding loses no information.
func (c Compressed) Precise() bool { return c.Format != FormatCoarse }

// Holders decodes the representation back to a holder set. For the
// coarse format the result is a superset of the original holders (the
// over-approximation the protocol pays for with extra invalidations).
func (c Compressed) Holders() CoreSet {
	if c.Format != FormatCoarse || c.payload.Empty() {
		return c.payload
	}
	// Each group bit sets its cores word by word, the last group cut at
	// c.Cores, into an extension allocated once at its final length.
	var s CoreSet
	g := groupSize(c.Cores, c.Budget)
	s.sizeFor(min((int(c.payload.last())+1)*g, c.Cores) - 1)
	c.payload.ForEach(func(group CoreID) {
		lo := int(group) * g
		s.setRange(lo, min(lo+g, c.Cores))
	})
	return s
}

// OverInvalidation returns how many extra cores would be invalidated if
// this representation were used for an exact holder set of the given
// entry (0 for precise formats).
func OverInvalidation(e Entry, c Compressed) int {
	exact := e.Holders().Count()
	return c.Holders().Count() - exact
}

// StorageBitsCompressed returns the total segment size of a compressed
// entry: 2 format bits + 1 state bit + the holder budget. Used when
// sizing home-memory partitions beyond the full-map socket bound.
func StorageBitsCompressed(budget int) int { return budget + 3 }

// MaxSocketsCompressed returns how many per-socket segments of the
// given budget fit a 64-byte memory block alongside the socket-level
// partition of an M-socket system: the largest M with
// 512 >= M*(budget+3) + (M+2).
func MaxSocketsCompressed(budget int) int {
	return (BlockBits - 2) / (StorageBitsCompressed(budget) + 1)
}
