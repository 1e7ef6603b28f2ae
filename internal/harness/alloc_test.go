package harness

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// allocsForSpec measures total heap allocations for building and
// running a small system with the given per-core stream length.
func allocsForSpec(spec core.SystemSpec, accesses int) float64 {
	const scale = 32
	prof := workload.MustGet("canneal")
	return testing.AllocsPerRun(3, func() {
		core.NewSystem(spec, workload.Threads(prof, spec.Cores, accesses, scale, 1)).Run()
	})
}

// checkStepPathAllocs is the allocation-regression guard for one
// backend's per-step path: the marginal allocation cost of extra
// accesses — the difference between a 2N-access run and an N-access
// run, which cancels out all construction-time allocation — must stay
// at zero per access. The steady-state step path is allocation-free
// (the ~53k allocs/op fig18 floor is construction); a change that
// allocates per step shows up here as roughly cores × extra-accesses
// allocations and fails loudly.
func checkStepPathAllocs(t *testing.T, id backend.ID, ratio float64) {
	t.Helper()
	const n = 4000
	spec, err := config.TableI(32).ForBackend(id, ratio)
	if err != nil {
		t.Fatal(err)
	}
	base := allocsForSpec(spec, n)
	double := allocsForSpec(spec, 2*n)
	marginal := (double - base) / float64(n*8) // 8 cores
	t.Logf("allocs: %d accesses %.0f, %d accesses %.0f, marginal/access %.4f",
		n, base, 2*n, double, marginal)
	// Threshold: the step path measures 0.0000 on every backend; 0.01
	// leaves room only for rare amortized growth of DRAM and LLC
	// bookkeeping, far below one allocation per step.
	if marginal > 0.01 {
		t.Fatalf("%s per-step path allocates %.4f allocations/access (marginal over %d extra accesses x 8 cores); the step path must stay allocation-free",
			id, marginal, n)
	}
}

// TestStepPathAllocationFloor guards the ZeroDEV step path: the NoDir
// spill and fuse flows must stay allocation-free.
func TestStepPathAllocationFloor(t *testing.T) {
	t.Run(string(backend.ZeroDEV), func(t *testing.T) {
		checkStepPathAllocs(t, backend.ZeroDEV, 0)
	})
}

// TestStepPathAllocationFloorBackends extends the allocation guard
// across the baseline backends: the sparse-MESI DEV invalidations, the
// DLS inclusion flows and the phase-priority NACK/retry ladder must
// stay allocation-free under the same bound.
func TestStepPathAllocationFloorBackends(t *testing.T) {
	for _, id := range []backend.ID{backend.SparseMESI, backend.DLS, backend.PhasePriority} {
		t.Run(string(id), func(t *testing.T) {
			checkStepPathAllocs(t, id, 1.0/8)
		})
	}
}
