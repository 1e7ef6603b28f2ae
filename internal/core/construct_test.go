package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/directory"
	"repro/internal/llc"
)

// buildPanic assembles spec and returns what the construction panicked
// with, or "" when it did not.
func buildPanic(spec core.SystemSpec) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	streams := make([]cpu.Stream, spec.Cores)
	for i := range streams {
		streams[i] = &script{}
	}
	core.NewSystem(spec, streams)
	return ""
}

// A backend whose structures cannot carry it is refused when the engine
// is built, not mid-run.
func TestNewRefusesMisassembledBackends(t *testing.T) {
	pre := config.TableI(microScale)
	traditional := func() directory.Directory { return directory.MustTraditional(pre.DirEntries(1), pre.DirWays) }
	for _, tc := range []struct {
		name string
		spec func() core.SystemSpec
		want string
	}{
		{"dls on a non-inclusive LLC", func() core.SystemSpec {
			s := pre.DLS()
			s.Mode = llc.NonInclusive
			return s
		}, "core: the DLS backend requires an inclusive LLC (in-tag tracking forces inclusion)"},
		{"dls with a directory", func() core.SystemSpec {
			s := pre.DLS()
			s.Dir = traditional
			return s
		}, "core: the DLS backend is directoryless; assemble it with directory.NoDir"},
		{"phasepriority without conflict detection", func() core.SystemSpec {
			s := pre.PhasePriority(1, llc.NonInclusive)
			s.Dir = func() directory.Directory { return directory.NoDir{} }
			return s
		}, "core: the phase-priority backend needs a directory with SetFull/EvictVictim (directory.Traditional)"},
		{"unregistered backend", func() core.SystemSpec {
			s := pre.Baseline(1, llc.NonInclusive)
			s.Backend = "mesi"
			return s
		}, `core: unknown protocol backend "mesi"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := buildPanic(tc.spec()); got != tc.want {
				t.Fatalf("construction panicked with %q, want %q", got, tc.want)
			}
		})
	}
	if got := buildPanic(pre.PhasePriority(1, llc.NonInclusive)); got != "" {
		t.Fatalf("a well-assembled phase-priority spec panicked: %s", got)
	}
}

// The backends that keep every entry in their directory must not find
// one housed in the LLC.
func TestCheckInvariantsRefusesLLCHousingOnDirectoryBackends(t *testing.T) {
	pre := config.TableI(microScale)
	for _, id := range []backend.ID{backend.SparseMESI, backend.PhasePriority} {
		t.Run(string(id), func(t *testing.T) {
			spec, err := pre.ForBackend(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			sys, _ := microSystem(spec)
			if err := sys.Engine.CheckInvariants(); err != nil {
				t.Fatalf("empty system: %v", err)
			}
			sys.Engine.LLC().InsertSpilled(0x40, coher.Entry{State: coher.DirOwned, Owner: 1})
			err = sys.Engine.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "housed a directory entry in the LLC for 0x40") {
				t.Fatalf("CheckInvariants = %v, want the LLC-housed entry reported", err)
			}
		})
	}
}

// Under FuseAll an S block's entry stays fused with the block, whose low
// bits it overwrote, so the eviction of the last sharer retrieves them
// with one acknowledgement (§III-C3). FPSS and SpillAll spill S entries
// and retrieve nothing.
func TestLastSharerRetrievalOnlyUnderFuseAll(t *testing.T) {
	pre := config.TableI(microScale)
	for _, tc := range []struct {
		policy core.DEPolicy
		want   uint64
	}{{core.FuseAll, 1}, {core.FPSS, 0}, {core.SpillAll, 0}} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			x := newTxBench(pre.ZeroDEV(0, tc.policy, llc.DataLRU, llc.NonInclusive), 1)
			x.read(0, txBase)
			x.read(1, txBase)
			if v := x.e.LLC().Probe(txBase); v.Fused != (tc.policy == core.FuseAll) {
				t.Fatalf("shared entry fused = %v under %v", v.Fused, tc.policy)
			}
			for c := 0; c < 2; c++ {
				x.e.Evict(x.now, coher.CoreID(c), txBase, coher.PrivShared)
				x.ports[c].held[0] = coher.PrivInvalid
			}
			if _, where, _ := x.e.LocateEntry(txBase); where != "" {
				t.Fatalf("entry still housed in %s after both sharers left", where)
			}
			st := x.e.Stats()
			acks := x.e.Mesh().Traffic().Messages[coher.MsgLastSharerAck]
			if st.LastSharerRetrievals != tc.want || acks != tc.want {
				t.Fatalf("%d retrievals and %d acknowledgements, want %d of each",
					st.LastSharerRetrievals, acks, tc.want)
			}
		})
	}
}
