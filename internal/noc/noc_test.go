package noc

import (
	"reflect"
	"testing"

	"repro/internal/coher"
)

func TestMeshPlacement(t *testing.T) {
	m := MustNew(DefaultParams(), 8, 8)
	// Latencies are symmetric and positive.
	for c := coher.CoreID(0); c < 8; c++ {
		for b := 0; b < 8; b++ {
			if m.CoreToBank(c, b) != m.BankToCore(b, c) {
				t.Fatalf("asymmetric latency core %d bank %d", c, b)
			}
			if m.CoreToBank(c, b) == 0 {
				t.Fatalf("zero latency core %d bank %d", c, b)
			}
		}
	}
	if m.CoreToCore(0, 0) == 0 {
		t.Fatal("self messages still traverse a router")
	}
	// Triangle-ish sanity: a longer path costs at least as much as a
	// shorter one on the same row.
	if m.CoreToCore(0, 7) < m.CoreToCore(0, 1) {
		t.Fatal("distant cores cheaper than near ones")
	}
}

func TestMeshLargeSystem(t *testing.T) {
	m := MustNew(DefaultParams(), 128, 16)
	if m.CoreToBank(127, 15) == 0 {
		t.Fatal("zero latency in 128-core mesh")
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := MustNew(DefaultParams(), 8, 8)
	m.Record(coher.MsgGetS, 8)
	m.Record(coher.MsgData, 8)
	m.Record(coher.MsgData, 8)
	tr := m.Traffic()
	if tr.Messages[coher.MsgData] != 2 || tr.Messages[coher.MsgGetS] != 1 {
		t.Fatalf("messages = %v", tr.Messages)
	}
	want := uint64(coher.MsgGetS.Bytes(8) + 2*coher.MsgData.Bytes(8))
	if tr.TotalBytes() != want {
		t.Fatalf("bytes = %d, want %d", tr.TotalBytes(), want)
	}
	if tr.TotalMessages() != 3 {
		t.Fatalf("total messages = %d", tr.TotalMessages())
	}
	var other Traffic
	other.Add(tr)
	if other.TotalBytes() != want {
		t.Fatal("Add failed")
	}
}

func TestNewRejectsBadCounts(t *testing.T) {
	if _, err := New(DefaultParams(), 0, 4); err == nil {
		t.Fatal("zero cores accepted")
	}
}

// TestTrafficAddSumsEveryCounter gives every element of every counter
// array a distinct value and checks that adding the record twice
// doubles each one, so a counter Add leaves out fails here.
func TestTrafficAddSumsEveryCounter(t *testing.T) {
	var one Traffic
	v := reflect.ValueOf(&one).Elem()
	n := uint64(0)
	for f := 0; f < v.NumField(); f++ {
		for i := 0; i < v.Field(f).Len(); i++ {
			n++
			v.Field(f).Index(i).SetUint(n)
		}
	}
	var sum Traffic
	sum.Add(&one)
	sum.Add(&one)
	got := reflect.ValueOf(sum)
	n = 0
	for f := 0; f < got.NumField(); f++ {
		for i := 0; i < got.Field(f).Len(); i++ {
			n++
			if c := got.Field(f).Index(i).Uint(); c != 2*n {
				t.Errorf("Add: %s[%d] = %d, want %d", got.Type().Field(f).Name, i, c, 2*n)
			}
		}
	}
}
