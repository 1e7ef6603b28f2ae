package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>.golden, rewriting the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/zerodev -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run `go test ./cmd/zerodev -update` after intended changes)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestListGolden pins the `zerodev list` output: the experiment registry
// and its titles are part of the CLI surface.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)
	golden(t, "list", buf.Bytes())
}

// TestAuditListGolden pins the `zerodev audit -list` output: the
// injector kinds, their default rates, and the campaign cells are part
// of the CLI surface (and of the fault model documented in DESIGN.md).
func TestAuditListGolden(t *testing.T) {
	var buf bytes.Buffer
	faults.WriteList(&buf)
	golden(t, "audit_list", buf.Bytes())
}

// TestListBackendsGolden pins the `zerodev run -list-backends` output:
// backend names and their guarantee flags are the contract the
// -backend flags, mcheck, and the conformance suite key off.
func TestListBackendsGolden(t *testing.T) {
	var buf bytes.Buffer
	backend.WriteList(&buf)
	golden(t, "list_backends", buf.Bytes())
}

// TestRunExperimentGolden pins the full table output of every
// registered experiment at a fixed seed and scale, catching accidental
// changes to either the simulator's numbers or the report formatting;
// an experiment without a golden fails. fig4 runs at 4000 accesses per
// core, every other experiment at 1000. Each runs through Execute with
// several workers, so it also re-checks that the CLI path's output is
// scheduling-independent.
func TestRunExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, e := range harness.List() {
		t.Run(e.ID, func(t *testing.T) {
			o := harness.Options{Scale: 32, Accesses: 1000, Seed: 1, Quick: true, Workers: 4}
			if e.ID == "fig4" {
				o.Accesses = 4000
			}
			var buf bytes.Buffer
			if _, err := e.Execute(context.Background(), o, &buf); err != nil {
				t.Fatal(err)
			}
			golden(t, e.ID+"_quick", buf.Bytes())
		})
	}
}

// TestAuditGolden pins the fault-injection audit table over every
// campaign cell: injection counts, recovery-flow counters and verdicts.
func TestAuditGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := faults.DefaultConfig()
	cfg.AuditEvery = 500
	o := harness.Options{Scale: 32, Accesses: 1000, Seed: 1, Workers: 4}
	var buf bytes.Buffer
	if _, err := faults.Audit(cfg, faults.Campaigns()).Execute(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "audit", buf.Bytes())
}
