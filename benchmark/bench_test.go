package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeDiv shrinks every stream to 1/100 of its benchmark length.
const smokeDiv = 100

func smokeBench(t *testing.T, trace bool, ws ...*workloadDef) *bench {
	t.Helper()
	pins, err := parsePins(pinnedDigests)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		ws = workloads
	}
	return &bench{workloads: ws, seed: 1, div: smokeDiv, samples: 2, trace: trace, pins: pins}
}

// lastJSON parses the result line report prints last.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// declared reads a metric section of BENCHMARK.json as name -> unit.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatalf("%s: %v", section, err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// simValues are a run's simulated metrics, which must repeat exactly.
func simValues(r *result) map[string]float64 {
	v := simLayers(r.ref)
	for k, x := range simEndToEnd(r.ref) {
		v[k] = x
	}
	return v
}

// TestSmoke runs every workload at 1/100 size, untraced and traced, and
// checks what the full benchmark promises: runs pass their checks,
// traced and untraced runs simulate the same thing, counts repeat
// exactly, and the printed metrics are exactly the declared ones.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	plain := smokeBench(t, false).run()
	traced := smokeBench(t, true).run()

	for i, r := range traced {
		p := plain[i]
		if r.failed != 0 || p.failed != 0 || r.ref == nil || p.ref == nil {
			t.Fatalf("%s: failed runs: %v %v", r.w.name, p.problems, r.problems)
		}
		if r.ref.digest != p.ref.digest {
			t.Errorf("%s: traced digest %#x, untraced %#x", r.w.name, r.ref.digest, p.ref.digest)
		}
		if a, b := simValues(p), simValues(r); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: simulated metrics differ between invocations:\n%v\n%v", r.w.name, a, b)
		}
		for m, v := range r.layers {
			if strings.HasSuffix(m, ".calls_per_kaccess") && v[0] != v[len(v)-1] {
				t.Errorf("%s: %s differs between traced runs: %v", r.w.name, m, v)
			}
		}
	}

	for _, tc := range []struct {
		rs      []*result
		traced  bool
		section string
	}{{plain, false, "end_to_end"}, {traced, true, "per_layer"}} {
		want := declared(t, tc.section)
		for _, r := range tc.rs {
			var buf bytes.Buffer
			if !report(&buf, []*result{r}, tc.traced, false) {
				t.Errorf("%s: report says incorrect", r.w.name)
			}
			got := lastJSON(t, buf.String())
			if len(got.Metrics) != len(want) {
				t.Errorf("%s: printed %d %s metrics, BENCHMARK.json declares %d", r.w.name, len(got.Metrics), tc.section, len(want))
			}
			for m, v := range got.Metrics {
				if !name.MatchString(m) {
					t.Errorf("%s: metric name %q", r.w.name, m)
				}
				if unit, ok := want[m]; !ok || unit != v.Unit {
					t.Errorf("%s: printed %s in %s, BENCHMARK.json has %q in %s", r.w.name, m, v.Unit, unit, tc.section)
				}
			}
		}
	}
	for _, r := range plain {
		t.Logf("%s@1/%d digest %#016x", r.w.name, smokeDiv, r.ref.digest)
	}
}

// TestPerturbedPinFails is the digest check's known-bad case: a pin
// that differs from what the simulator computes fails every run.
func TestPerturbedPinFails(t *testing.T) {
	w := workloads[0]
	b := smokeBench(t, false, w)
	key := w.name + "@1/100"
	if _, ok := b.pins[key]; !ok {
		t.Fatalf("no pin for %s", key)
	}
	b.pins[key] ^= 1
	rs := b.run()
	if r := rs[0]; r.failed != r.attempted || !strings.Contains(strings.Join(r.problems, "\n"), "pin") {
		t.Fatalf("perturbed pin: %d of %d runs failed: %v", r.failed, r.attempted, r.problems)
	}
	var buf bytes.Buffer
	if report(&buf, rs, false, false) || lastJSON(t, buf.String()).Correct {
		t.Fatal("a run against a perturbed pin reports correct")
	}
}
