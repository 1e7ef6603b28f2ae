package llc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coher"
)

func tiny(repl Repl) *LLC {
	// 1 bank, 1 set, 4 ways.
	l, err := NewGeometry(1, 4, 1, NonInclusive, repl)
	if err != nil {
		panic(err)
	}
	return l
}

func owned(c coher.CoreID) coher.Entry {
	return coher.Entry{State: coher.DirOwned, Owner: c}
}

func shared(cs ...coher.CoreID) coher.Entry {
	e := coher.Entry{State: coher.DirShared}
	for _, c := range cs {
		e.Sharers.Add(c)
	}
	return e
}

func TestProbeAndKinds(t *testing.T) {
	l := tiny(LRU)
	if _, evicted := l.InsertData(1, false); evicted {
		t.Fatal("insert into empty set evicted")
	}
	v := l.Probe(1)
	if !v.HasData() || v.HasDE() || v.Fused {
		t.Fatalf("view = %+v", v)
	}
	// A spilled entry for the same address coexists in the set (two tag
	// matches, distinguished by state, §III-C1).
	if _, evicted := l.InsertSpilled(1, shared(0)); evicted {
		t.Fatal("unexpected eviction")
	}
	v = l.Probe(1)
	if !v.HasData() || !v.HasDE() || v.Fused || v.DataWay == v.DEWay {
		t.Fatalf("view = %+v", v)
	}
	d, s, f := l.CountKinds()
	if d != 1 || s != 1 || f != 0 {
		t.Fatalf("kinds = %d/%d/%d", d, s, f)
	}
}

func TestFuseUnfuse(t *testing.T) {
	l := tiny(LRU)
	l.InsertData(2, true)
	v := l.Probe(2)
	l.Fuse(v, owned(3))
	v = l.Probe(2)
	if !v.Fused || v.DataWay != v.DEWay {
		t.Fatalf("view after fuse = %+v", v)
	}
	if p := l.Payload(v, v.DEWay); !p.Dirty || l.Entry(v).Owner != 3 {
		t.Fatalf("payload = %+v, entry = %v", p, l.Entry(v))
	}
	l.Unfuse(v)
	v = l.Probe(2)
	if v.Fused || !v.HasData() || v.HasDE() {
		t.Fatalf("view after unfuse = %+v", v)
	}
	if !l.Payload(v, v.DataWay).Dirty {
		t.Fatal("unfuse must preserve the block-dirty bit")
	}
}

func TestDropDE(t *testing.T) {
	l := tiny(LRU)
	l.InsertSpilled(4, shared(1))
	l.DropDE(l.Probe(4))
	if v := l.Probe(4); v.HasDE() || v.HasData() {
		t.Fatal("spilled line must vanish")
	}
	l.InsertData(5, false)
	l.Fuse(l.Probe(5), owned(0))
	l.DropDE(l.Probe(5))
	if v := l.Probe(5); !v.HasData() || v.HasDE() {
		t.Fatal("fused line must revert to data")
	}
}

func TestDataLRUPrefersDataVictims(t *testing.T) {
	l := tiny(DataLRU)
	l.InsertSpilled(0, shared(1)) // oldest
	l.InsertData(1, false)
	l.InsertData(2, false)
	l.InsertData(3, false)
	// Set full; inserting picks the LRU *data* line (addr 1), not the
	// older spilled entry.
	ev, evicted := l.InsertData(4, false)
	if !evicted || ev.Kind != KindData || ev.Addr != 1 {
		t.Fatalf("evicted = %+v, want data block 1", ev)
	}
	// When only DE lines remain eligible, they are evicted as a fallback.
	l2 := tiny(DataLRU)
	for i := coher.Addr(0); i < 4; i++ {
		l2.InsertSpilled(i, shared(1))
	}
	ev, evicted = l2.InsertData(9, false)
	if !evicted || ev.Kind != KindSpilled {
		t.Fatalf("fallback evicted = %+v", ev)
	}
}

func TestSpLRUTouchOrderProtectsSpill(t *testing.T) {
	l := tiny(SpLRU)
	l.InsertData(0, false)
	l.InsertSpilled(0, shared(2))
	l.InsertData(1, false)
	l.InsertData(2, false)
	// Access block 0: touch B then its spilled entry (spill ends MRU).
	l.Touch(l.Probe(0))
	// Next insertions evict block 1, then block 2, then block 0 — the
	// spilled entry outlives its block.
	ev, evicted := l.InsertData(3, false)
	if !evicted || ev.Addr != 1 || ev.Kind != KindData {
		t.Fatalf("first eviction = %+v", ev)
	}
	ev, evicted = l.InsertData(4, false)
	if !evicted || ev.Addr != 2 {
		t.Fatalf("second eviction = %+v", ev)
	}
	ev, evicted = l.InsertData(5, false)
	if !evicted || ev.Addr != 0 || ev.Kind != KindData {
		t.Fatalf("third eviction = %+v (block must leave before its spill)", ev)
	}
	ev, evicted = l.InsertData(6, false)
	if !evicted || ev.Kind != KindSpilled || ev.Addr != 0 {
		t.Fatalf("fourth eviction = %+v (now the spill)", ev)
	}
}

func TestProtection(t *testing.T) {
	l := tiny(LRU)
	l.InsertData(0, false) // oldest → natural victim
	l.InsertData(1, false)
	l.InsertData(2, false)
	l.InsertData(3, false)
	l.Protect(0)
	ev, evicted := l.InsertData(4, false)
	if !evicted || ev.Addr == 0 {
		t.Fatalf("protected line evicted: %+v", ev)
	}
	l.Unprotect()
	ev, evicted = l.InsertData(5, false)
	if !evicted || ev.Addr != 0 {
		t.Fatalf("after unprotect, block 0 should go: %+v", ev)
	}
}

func TestBankMapping(t *testing.T) {
	l := MustNew(64<<10, 16, 8, NonInclusive, LRU)
	if l.Banks() != 8 || l.Ways() != 16 || l.Blocks() != 1024 {
		t.Fatalf("geometry: banks=%d ways=%d blocks=%d", l.Banks(), l.Ways(), l.Blocks())
	}
	// Round-trip: inserting an address makes it probeable, and evicted
	// addresses reconstruct correctly.
	addr := coher.Addr(0x12345)
	l.InsertData(addr, true)
	v := l.Probe(addr)
	if !v.HasData() || v.Bank != l.BankOf(addr) {
		t.Fatalf("probe after insert failed: %+v", v)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 16, 8, NonInclusive, LRU); err == nil {
		t.Fatal("indivisible capacity accepted")
	}
	if _, err := NewGeometry(3, 4, 1, NonInclusive, LRU); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	for _, build := range []func() (*LLC, error){
		func() (*LLC, error) { return New(96<<10, 16, 6, NonInclusive, LRU) },
		func() (*LLC, error) { return NewGeometry(4, 4, 6, NonInclusive, LRU) },
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "bank count 6 not a power of two") {
			t.Fatalf("6 banks: err = %v, want the bank count refused by name", err)
		}
	}
}

// bare reports whether a line header can hold e: a bare owned entry,
// with no sharer bits and neither flag. It restates the rule here so
// the tests do not take it from the code they check.
func bare(e coher.Entry) bool {
	return e.State == coher.DirOwned && e.Sharers.Empty() && !e.Busy && !e.Imprecise
}

// checkDELines asserts the DE-line counter, which gates Probe's fast
// path, agrees with an exhaustive kind census, and that the slab's live
// count is the number of housed entries that are not bare owned
// entries. Probe's single-way fast path is only correct while the
// counter is exact, so any drift is a correctness bug, not a
// performance one.
func checkDELines(t *testing.T, l *LLC) {
	t.Helper()
	_, s, f := l.CountKinds()
	if l.deLines != s+f {
		t.Fatalf("deLines = %d, want %d (spilled %d + fused %d)", l.deLines, s+f, s, f)
	}
	outOfLine := 0
	l.ForEachDE(func(_ coher.Addr, _ bool, e coher.Entry) {
		if !bare(e) {
			outOfLine++
		}
	})
	if l.slab.live != outOfLine {
		t.Fatalf("slab live = %d, want %d housed entries that are not bare owned", l.slab.live, outOfLine)
	}
}

func TestDELinesCounterTracksKindCensus(t *testing.T) {
	l := tiny(LRU)
	checkDELines(t, l)

	l.InsertData(1, false)
	checkDELines(t, l)
	l.InsertSpilled(1, shared(0))
	checkDELines(t, l)

	// Fuse a second block, unfuse it again.
	l.InsertData(2, true)
	v := l.Probe(2)
	l.Fuse(v, owned(3))
	checkDELines(t, l)
	l.Unfuse(l.Probe(2))
	checkDELines(t, l)

	// Drop the spilled entry.
	l.DropDE(l.Probe(1))
	checkDELines(t, l)

	// Refill the set with spills, then force evictions of DE lines by
	// data allocations (the set has 4 ways).
	l.InsertSpilled(5, shared(1))
	l.InsertSpilled(9, shared(2))
	l.InsertSpilled(13, owned(1))
	checkDELines(t, l)
	for a := coher.Addr(17); a < 33; a += 4 {
		l.InsertData(a, false)
		checkDELines(t, l)
	}

	// Drop via a fused line's DropDE path.
	v = l.Probe(29)
	if v.HasData() {
		l.Fuse(v, owned(2))
		checkDELines(t, l)
		l.DropDE(l.Probe(29))
		checkDELines(t, l)
	}

	// Evict removes one line as replacement would: a spilled line alone
	// (its entry in the slab), a fused line with its block part (its
	// entry in the header), a data line alone.
	l = tiny(LRU)
	l.InsertData(1, true)
	l.InsertSpilled(1, shared(0, 1))
	l.InsertData(2, true)
	l.Fuse(l.Probe(2), owned(3))
	checkDELines(t, l)
	for _, tc := range []struct {
		addr  coher.Addr
		de    bool // evict the DE way, else the data way
		want  Evicted
		after bool // the block still has a data line
	}{
		{1, true, Evicted{Addr: 1, Kind: KindSpilled, Entry: shared(0, 1)}, true},
		{2, true, Evicted{Addr: 2, Kind: KindFused, Dirty: true, Entry: owned(3)}, false},
		{1, false, Evicted{Addr: 1, Kind: KindData, Dirty: true}, false},
	} {
		v := l.Probe(tc.addr)
		way := v.DataWay
		if tc.de {
			way = v.DEWay
		}
		ev := l.Evict(v, way)
		if ev.Addr != tc.want.Addr || ev.Kind != tc.want.Kind || ev.Dirty != tc.want.Dirty || !ev.Entry.Same(tc.want.Entry) {
			t.Fatalf("Evict = {%#x %v dirty=%v %v}, want {%#x %v dirty=%v %v}", uint64(ev.Addr), ev.Kind, ev.Dirty, ev.Entry,
				uint64(tc.want.Addr), tc.want.Kind, tc.want.Dirty, tc.want.Entry)
		}
		if v := l.Probe(tc.addr); v.HasDE() || v.HasData() != tc.after {
			t.Fatalf("after evicting %v of %#x: %+v", ev.Kind, uint64(tc.addr), v)
		}
		checkDELines(t, l)
	}
	if d, s, f := l.CountKinds(); d+s+f != 0 || l.slab.live != 0 {
		t.Fatalf("%d data, %d spilled, %d fused lines and %d slab entries left", d, s, f, l.slab.live)
	}
}

// TestPayloadIsCompact pins the line header's layout: no pointer-bearing
// field (the line arrays stay invisible to the garbage collector) and at
// most eight bytes per line.
func TestPayloadIsCompact(t *testing.T) {
	typ := reflect.TypeOf(Payload{})
	if typ.Size() > 8 {
		t.Fatalf("Payload is %d bytes, want at most 8", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Fatalf("Payload field %s has kind %s, want a pointer-free scalar", f.Name, f.Type.Kind())
		}
	}
}

// churnEntry draws a live entry. Half are owned; of those, one in eight
// is busy, one in eight imprecise and one in eight carries a stale
// sharer bit, so owned entries take the slab as well as the header. One
// in eight of the shared entries is shared by a core past the two inline
// words, so its CoreSet carries an extension.
func churnEntry(rng *rand.Rand) coher.Entry {
	if rng.Intn(2) == 0 {
		e := owned(coher.CoreID(rng.Intn(300)))
		e.Busy = rng.Intn(8) == 0
		e.Imprecise = rng.Intn(8) == 0
		if rng.Intn(8) == 0 {
			e.Sharers.Add(coher.CoreID(rng.Intn(128)))
		}
		return e
	}
	e := shared(coher.CoreID(rng.Intn(128)), coher.CoreID(rng.Intn(128)))
	if rng.Intn(4) == 0 {
		e.Sharers.Add(coher.CoreID(128 + rng.Intn(300)))
	}
	e.Busy = rng.Intn(8) == 0
	return e
}

// TestEntrySlabChurn drives spills, fuses, unfuses, DropDE, entry
// rewrites and evictions by insertion against a map reference of the
// housed entries, checking after every operation that Entry, the
// evicted entries and ForEachDE agree with the reference, that the
// DE-line counter equals the kind census, that the slab holds exactly
// the entries that are not bare owned ones, that freed slots are
// zeroed, and that the slab never grows past the peak count of those
// out-of-line entries.
func TestEntrySlabChurn(t *testing.T) {
	for _, repl := range []Repl{LRU, SpLRU, DataLRU} {
		for seed := int64(1); seed <= 4; seed++ {
			churn(t, repl, seed, 10000)
		}
	}
}

func churn(t *testing.T, repl Repl, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// 2 banks x 4 sets x 4 ways over 96 addresses: sets stay full, so
	// most allocations evict.
	l, err := NewGeometry(4, 4, 2, NonInclusive, repl)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[coher.Addr]coher.Entry{}
	peak := 0
	evicted := func(op string, ev Evicted, ok bool) {
		if !ok || ev.Kind == KindData {
			return
		}
		want, housed := ref[ev.Addr]
		if !housed || !ev.Entry.Same(want) {
			t.Fatalf("%v seed %d %s: evicted %#x entry %v, reference %v (housed %v)",
				repl, seed, op, uint64(ev.Addr), ev.Entry, want, housed)
		}
		delete(ref, ev.Addr)
	}
	for i := 0; i < ops; i++ {
		addr := coher.Addr(rng.Intn(96))
		v := l.Probe(addr)
		op := rng.Intn(6)
		switch {
		case op == 0 && !v.HasData():
			ev, ok := l.InsertData(addr, rng.Intn(2) == 0)
			evicted("insert", ev, ok)
		case op == 1 && !v.HasDE():
			e := churnEntry(rng)
			ev, ok := l.InsertSpilled(addr, e)
			evicted("spill", ev, ok)
			ref[addr] = e
		case op == 2 && v.HasData() && !v.HasDE():
			e := churnEntry(rng)
			l.Fuse(v, e)
			ref[addr] = e
		case op == 3 && v.Fused:
			l.Unfuse(v)
			delete(ref, addr)
		case op == 4 && v.HasDE():
			l.DropDE(v)
			delete(ref, addr)
		case op == 5 && v.HasDE():
			e := churnEntry(rng)
			l.SetEntry(v, e)
			ref[addr] = e
		}
		outOfLine := 0
		for _, e := range ref {
			if !bare(e) {
				outOfLine++
			}
		}
		peak = max(peak, outOfLine)
		checkChurn(t, l, ref, peak)
	}
}

func checkChurn(t *testing.T, l *LLC, ref map[coher.Addr]coher.Entry, peak int) {
	t.Helper()
	for a, want := range ref {
		v := l.Probe(a)
		if !v.HasDE() {
			t.Fatalf("%#x: reference holds %v, LLC houses nothing", uint64(a), want)
		}
		if got := l.Entry(v); !got.Same(want) {
			t.Fatalf("%#x: Entry = %v, want %v", uint64(a), got, want)
		}
	}
	seen := 0
	l.ForEachDE(func(a coher.Addr, _ bool, e coher.Entry) {
		seen++
		if want, ok := ref[a]; !ok || !e.Same(want) {
			t.Fatalf("ForEachDE %#x = %v, reference %v (housed %v)", uint64(a), e, want, ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("ForEachDE visited %d entries, reference holds %d", seen, len(ref))
	}
	checkDELines(t, l)
	if l.deLines != len(ref) {
		t.Fatalf("deLines = %d, reference holds %d", l.deLines, len(ref))
	}
	if int(l.slab.next) != peak {
		t.Fatalf("slab handed out %d slots, peak out-of-line count %d", l.slab.next, peak)
	}
	for _, s := range l.slab.free {
		if e := l.slab.at(s); !e.Same(coher.Entry{}) || e.Sharers.ExtWords() != nil {
			t.Fatalf("freed slot %d holds %v", s, *e)
		}
	}
}

func TestEntryOfDataLinePanics(t *testing.T) {
	// A data line's slot is 0, which names no slab slot: misusing a data
	// way as a DE way must fail loudly, not return another line's entry.
	l := tiny(LRU)
	l.InsertSpilled(1, owned(0))
	l.InsertData(2, false)
	v := l.Probe(2)
	v.DEWay = v.DataWay
	defer func() {
		if recover() == nil {
			t.Fatal("Entry of a data line did not panic")
		}
	}()
	l.Entry(v)
}

func TestSetEntryOfDataLinePanics(t *testing.T) {
	// A bare owned entry fits a header, so without the kind check a
	// misused data way would silently take it into the data line.
	l := tiny(LRU)
	l.InsertData(2, false)
	v := l.Probe(2)
	v.DEWay = v.DataWay
	defer func() {
		if recover() == nil {
			t.Fatal("SetEntry of a data line did not panic")
		}
	}()
	l.SetEntry(v, owned(1))
}

// TestKindRewriteKeepsHeaderEntry mirrors the engine's FuseAll/EPD step
// (core's updateLLCDE), which turns a fused line into a spilled one by
// rewriting Kind and Dirty in place and then stores the new entry: the
// header-held owner survives the rewrite, and the store that follows
// moves the entry between header and slab as usual.
func TestKindRewriteKeepsHeaderEntry(t *testing.T) {
	for _, before := range []coher.Entry{owned(5), shared(1, 2)} {
		l := tiny(LRU)
		l.InsertData(3, true)
		l.Fuse(l.Probe(3), before)
		v := l.Probe(3)
		p := l.Payload(v, v.DEWay)
		p.Kind, p.Dirty = KindSpilled, false
		v.DataWay, v.Fused = -1, false
		if got := l.Entry(v); !got.Same(before) {
			t.Fatalf("after the kind rewrite Entry = %v, want %v", got, before)
		}
		l.SetEntry(v, owned(7))
		v = l.Probe(3)
		if v.Fused || v.HasData() || !v.HasDE() {
			t.Fatalf("view after the rewrite = %+v, want a spilled line only", v)
		}
		if got := l.Entry(v); !got.Same(owned(7)) {
			t.Fatalf("Entry = %v, want %v", got, owned(7))
		}
		checkDELines(t, l)
	}
}
