package socket_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/llc"
	"repro/internal/socket"
	"repro/internal/workload"
)

// runOrg assembles and runs one scale-frontier organization under
// ZeroDEV(NoDir), returning the system for stat assertions. Accesses are
// kept small: these tests check that wide shapes assemble, run, and hold
// their invariants, not performance.
func runOrg(t *testing.T, g config.Org, accesses int) *socket.System {
	t.Helper()
	p := socket.DefaultParams(g.Sockets, 2048)
	p.HomeGroups = g.HomeGroups
	p.IntraGroupCycles = 40
	spec := g.Preset.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	prof := workload.MustGet("canneal")
	streams := workload.Threads(prof, g.Sockets*spec.Cores, accesses, g.Preset.Scale, 7)
	sys, err := socket.New(p, spec, streams)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return sys
}

func TestScaleFrontier16x64(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke")
	}
	g, err := config.MultiSocket(1024, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.HomeGroups != 4 {
		t.Fatalf("home groups = %d, want 4", g.HomeGroups)
	}
	sys := runOrg(t, g, 400)
	if sys.Mem().SegmentBudget() != 27 {
		t.Fatalf("segment budget = %d, want 27", sys.Mem().SegmentBudget())
	}
	var devs uint64
	for _, s := range sys.Sockets {
		devs += s.Engine.Stats().DEVs
	}
	if devs != 0 {
		t.Fatalf("%d DEVs under ZeroDEV at 16×64", devs)
	}
	t.Logf("16×64: misses=%d forwards=%d nacks=%d coarse=%d metaHW=%d",
		sys.Stats().SocketMisses, sys.Stats().SocketForwards, sys.Stats().DENFNacks,
		sys.Mem().CoarseSegmentWrites(), sys.Mem().MetaHighWater())
}

func TestScaleFrontierWideSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke")
	}
	// 4 × 256-core sockets: per-socket sharer sets cross the two-word
	// inline boundary, and home segments run compressed (budget 123).
	g, err := config.MultiSocket(1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	sys := runOrg(t, g, 400)
	if sys.Mem().SegmentBudget() != 123 {
		t.Fatalf("segment budget = %d, want 123", sys.Mem().SegmentBudget())
	}
	var devs uint64
	for _, s := range sys.Sockets {
		devs += s.Engine.Stats().DEVs
	}
	if devs != 0 {
		t.Fatalf("%d DEVs under ZeroDEV at 4×256", devs)
	}
}

func TestHierarchicalHomeDistribution(t *testing.T) {
	// With groups, consecutive addresses interleave across groups first;
	// the flat layout must be preserved when HomeGroups <= 1. Exercised
	// indirectly: two 8-socket runs, flat vs grouped, must both pass
	// invariants but differ in timing (the grouped one has cheap
	// intra-group hops).
	g, err := config.MultiSocket(256, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.HomeGroups != 2 {
		t.Fatalf("home groups = %d, want 2", g.HomeGroups)
	}
	runOrg(t, g, 300)
	flat := g
	flat.HomeGroups = 1
	runOrg(t, flat, 300)
}

func TestOrgValidation(t *testing.T) {
	// Satellite refusal table: shapes that cannot be represented are
	// rejected with named errors instead of panicking mid-run.
	if _, err := config.MultiSocket(1000, 16, 8); err == nil {
		t.Fatal("1000 cores do not split over 16 sockets")
	}
	if _, err := config.MultiSocket(16384, 64, 8); err == nil {
		t.Fatal("64×256 exceeds the compressed home-segment budget")
	}
}

func TestTooManySocketsRefused(t *testing.T) {
	// The packed socket-level entry holds 56 sharer bits: 56 sockets
	// build, anything wider is refused by name instead of silently
	// dropping sharers past bit 63.
	pre := config.TableI(32)
	pre.Cores = 2
	spec := pre.ZeroDEV(0, core.FPSS, llc.DataLRU, llc.NonInclusive)
	for _, tc := range []struct {
		sockets int
		ok      bool
	}{{56, true}, {57, false}, {64, false}, {65, false}} {
		t.Run(fmt.Sprint(tc.sockets), func(t *testing.T) {
			g := config.Org{Name: "wide", Preset: pre, Sockets: tc.sockets}
			if err := g.Validate(); (err == nil) != tc.ok || (err != nil && !errors.Is(err, socket.ErrTooManySockets)) {
				t.Fatalf("Org.Validate(%d sockets) = %v", tc.sockets, err)
			}
			var streams []cpu.Stream
			if tc.ok {
				streams = workload.Threads(workload.MustGet("swaptions"), tc.sockets*spec.Cores, 0, 32, 1)
			}
			_, err := socket.New(socket.DefaultParams(tc.sockets, 64), spec, streams)
			if (err == nil) != tc.ok || (err != nil && !errors.Is(err, socket.ErrTooManySockets)) {
				t.Fatalf("socket.New(%d sockets) = %v", tc.sockets, err)
			}
		})
	}
}
