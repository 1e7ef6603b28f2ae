package coher

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompressFormatSelection(t *testing.T) {
	// 8 cores, budget 8: full map always fits.
	e := Entry{State: DirShared}
	e.Sharers.Add(1)
	e.Sharers.Add(7)
	c, err := Compress(e, 8, 8)
	if err != nil || c.Format != FormatFullMap || !c.Precise() {
		t.Fatalf("c=%+v err=%v", c, err)
	}
	// 128 cores, budget 21 (= 3 pointers of 7 bits): 2 holders fit.
	c, err = Compress(e, 128, 21)
	if err != nil || c.Format != FormatLimitedPtr || !c.Precise() {
		t.Fatalf("c=%+v err=%v", c, err)
	}
	// 128 cores, budget 21, 5 holders: overflow to coarse.
	var big Entry
	big.State = DirShared
	for i := 0; i < 5; i++ {
		big.Sharers.Add(CoreID(i * 20))
	}
	c, err = Compress(big, 128, 21)
	if err != nil || c.Format != FormatCoarse || c.Precise() {
		t.Fatalf("c=%+v err=%v", c, err)
	}
}

func TestCompressRejects(t *testing.T) {
	if _, err := Compress(Entry{}, 8, 8); err == nil {
		t.Fatal("dead entry accepted")
	}
	if _, err := Compress(Entry{State: DirOwned}, 128, 3); err == nil {
		t.Fatal("budget below one pointer accepted")
	}
}

// Property: decoding always yields a superset of the original holders,
// and is exact when the format claims precision.
func TestCompressSupersetProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(nHolders uint8, budgetSel uint8) bool {
		cores := 128
		budget := []int{16, 21, 32, 64, 127}[int(budgetSel)%5]
		var e Entry
		e.State = DirShared
		n := int(nHolders)%cores + 1
		for i := 0; i < n; i++ {
			e.Sharers.Add(CoreID(r.Intn(cores)))
		}
		c, err := Compress(e, cores, budget)
		if err != nil {
			return false
		}
		dec := c.Holders()
		// Superset check.
		super := true
		e.Sharers.ForEach(func(id CoreID) {
			if !dec.Contains(id) {
				super = false
			}
		})
		if !super {
			return false
		}
		if c.Precise() && !dec.Equal(e.Sharers) {
			return false
		}
		// Over-invalidation bounded by (groupSize-1) per holder group.
		if OverInvalidation(e, c) < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnedCompressionIsPrecise(t *testing.T) {
	// A single owner always fits one pointer.
	e := Entry{State: DirOwned, Owner: 93}
	c, err := Compress(e, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Precise() || !c.Holders().Contains(93) || c.Holders().Count() != 1 {
		t.Fatalf("owned compression imprecise: %+v", c)
	}
}

func TestMaxSocketsCompressed(t *testing.T) {
	// Full map for 128 cores allows only 3 sockets; a 32-bit compressed
	// segment (35 bits + DirEvict share) allows many more.
	full := MaxSocketsWithSocketPartition(128)
	comp := MaxSocketsCompressed(32)
	if comp <= full {
		t.Fatalf("compression must raise the socket bound: %d vs %d", comp, full)
	}
	if comp != (512-2)/(32+3+1) {
		t.Fatalf("bound formula: %d", comp)
	}
}

// holdersByMember is the member-by-member decoding: the limited-pointer
// format adds each pointer, and the coarse format adds every core of
// every group bit one at a time.
func holdersByMember(e Entry, cores, budget int) CoreSet {
	holders := e.Holders()
	ptrBits := max(ceilLog2(cores), 1)
	if cores <= budget {
		return holders
	}
	var s CoreSet
	if holders.Count() <= budget/ptrBits {
		for _, id := range holders.Members() {
			s.Add(id)
		}
		return s
	}
	g := groupSize(cores, budget)
	var groups CoreSet
	holders.ForEach(func(id CoreID) { groups.Add(CoreID(int(id) / g)) })
	groups.ForEach(func(group CoreID) {
		for i := 0; i < g; i++ {
			if c := int(group)*g + i; c < cores {
				s.Add(CoreID(c))
			}
		}
	})
	return s
}

func canonical(s CoreSet) bool {
	return (s.ext == nil || len(s.ext) > 0) && (len(s.ext) == 0 || s.ext[len(s.ext)-1] != 0)
}

func TestCompressedHoldersMatchMemberByMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cores := range []int{8, 128, 256, 1024} {
		ptrBits := max(ceilLog2(cores), 1)
		// Budgets from one pointer up to the full map, including those
		// whose group size is 3 (groups [63,66) and [126,129) straddle
		// the word boundaries) and those that cut the last group short.
		budgets := []int{ptrBits, ptrBits + 1, 2 * ptrBits, 21, 27, (cores + 2) / 3, cores / 7, 123, cores - 1, cores}
		for _, budget := range budgets {
			if budget < ptrBits {
				continue
			}
			sets := [][]int{{0}, {cores - 1}, {63, 64}, {127, 128}, {62, 129}, {0, cores - 1}}
			for k := 0; k < 40; k++ {
				n := 1 + rng.Intn(cores)
				if k%4 == 0 {
					n = 1 + rng.Intn(8)
				}
				var ids []int
				for i := 0; i < n; i++ {
					ids = append(ids, rng.Intn(cores))
				}
				sets = append(sets, ids)
			}
			for _, ids := range sets {
				e := Entry{State: DirShared}
				for _, id := range ids {
					if id < cores {
						e.Sharers.Add(CoreID(id))
					}
				}
				if e.Sharers.Empty() {
					continue
				}
				c, err := Compress(e, cores, budget)
				if err != nil {
					t.Fatalf("Compress(%v, %d, %d): %v", e.Sharers, cores, budget, err)
				}
				got, want := c.Holders(), holdersByMember(e, cores, budget)
				if !got.Equal(want) || !canonical(got) || !canonical(c.payload) {
					t.Fatalf("%d cores, budget %d, %v (%v): holders %v (ext %d words), member by member %v",
						cores, budget, e.Sharers, c.Format, got, len(got.ext), want)
				}
			}
		}
	}
}
