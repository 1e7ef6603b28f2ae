package coher

import "testing"

// Every field Same compares must show in String: perturbing any one of
// them, from an owned, a shared and a free entry, changes the text,
// while canonical entries keep their short form.
func TestEntryStringShowsEveryComparedField(t *testing.T) {
	owned := Entry{State: DirOwned, Owner: 3}
	var shared Entry
	shared.State = DirShared
	shared.Sharers.Add(1)
	shared.Sharers.Add(2)
	for e, want := range map[*Entry]string{
		&owned:  "M/E owner=3 busy=false",
		&shared: "S sharers={1,2} busy=false",
		{}:      "I",
	} {
		if got := e.String(); got != want {
			t.Errorf("canonical entry prints %q, want %q", got, want)
		}
	}

	perturb := []struct {
		field string
		apply func(*Entry)
	}{
		{"State", func(e *Entry) { e.State = (e.State + 1) % 3 }},
		{"Owner", func(e *Entry) { e.Owner++ }},
		{"Busy", func(e *Entry) { e.Busy = !e.Busy }},
		{"Imprecise", func(e *Entry) { e.Imprecise = !e.Imprecise }},
		{"Sharers", func(e *Entry) { e.Sharers.Add(200) }},
	}
	for _, base := range []Entry{owned, shared, {}} {
		for _, p := range perturb {
			e := base
			p.apply(&e)
			if e.Same(base) {
				t.Fatalf("perturbing %s of %v left it Same", p.field, base)
			}
			if e.String() == base.String() {
				t.Errorf("perturbing %s of %q does not change its String", p.field, base.String())
			}
		}
	}
}
