package core

import (
	"reflect"
	"testing"
)

// TestStatsAddSumsEveryField guards the engine-counter fold every
// collected run goes through (stats.Collect and CollectSockets): a
// counter added to Stats but not to Add would read as zero in every
// run record.
func TestStatsAddSumsEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Stats
	sum.Add(&one)
	sum.Add(&one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Uint() != 2*uint64(i+1) {
			t.Errorf("Add: %s = %d, want %d", got.Type().Field(i).Name, got.Field(i).Uint(), 2*(i+1))
		}
	}
}
