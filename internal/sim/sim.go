// Package sim provides primitive types shared by every component of the
// ZeroDEV chip-multiprocessor simulator: the cycle clock, a deterministic
// pseudo-random number generator used by workload synthesis and replacement
// tie-breaking, and the min-clock core scheduler that interleaves per-core
// execution.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Cycle is a point on (or a span of) the global clock, measured in core
// clock cycles of the simulated CMP.
type Cycle uint64

// MaxCycle is a sentinel larger than any reachable simulation time.
const MaxCycle = Cycle(^uint64(0))

// Clocked is any agent that owns a local clock and can perform a unit of
// work when scheduled. The scheduler always runs the agent with the
// smallest Now; this interleaving approximates concurrent execution while
// keeping the simulation fully deterministic.
type Clocked interface {
	// Now reports the agent's local time; after the agent finishes it
	// keeps reporting the final time.
	Now() Cycle
	// Step performs one unit of work (typically: run until the next memory
	// access completes) and advances the local clock. Step must not be
	// called after Now returns MaxCycle.
	Step()
	// Done reports whether the agent has retired its whole stream.
	Done() bool
}

// CancelEvery is the cooperative cancellation interval: a simulation
// driven through ContextHook observes context cancellation within this
// many scheduler steps, so even a multi-million-step unit aborts with
// bounded latency while the per-step overhead stays one modulo test.
const CancelEvery = 1024

// ContextHook wraps an optional Drive hook with cooperative
// cancellation and progress accounting: it publishes the step count to
// steps on every call (when non-nil, read by the harness watchdog for
// diagnostics — an uncontended atomic store costs ~1 ns against a
// protocol transaction costing hundreds, see BenchmarkContextHook),
// and every CancelEvery steps it aborts the run with ctx's error once
// ctx is cancelled. inner, when non-nil, still runs on every step. A
// nil ctx and nil steps return inner unchanged, preserving the
// zero-overhead path.
func ContextHook(ctx context.Context, steps *atomic.Uint64, inner func(step uint64, now Cycle) error) func(step uint64, now Cycle) error {
	if ctx == nil && steps == nil {
		return inner
	}
	return func(step uint64, now Cycle) error {
		if steps != nil {
			// Publish every step, not every CancelEvery: a job that hangs
			// mid-interval (or before the first boundary) must still report
			// an exact step count to the watchdog, not one up to
			// CancelEvery-1 steps stale.
			steps.Store(step)
		}
		if step%CancelEvery == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: aborted at step %d: %w", step, err)
			}
		}
		if inner != nil {
			return inner(step, now)
		}
		return nil
	}
}

// Drive interleaves agents by smallest local clock until every agent is
// done and returns the largest local clock observed, i.e. the parallel
// completion time of the slowest agent. A non-nil hook observes every
// scheduler step: it receives the count of steps executed so far and
// the stepped agent's local time. The hook runs between transactions,
// when no request is in flight, so it may mutate or audit global state
// (fault-injection campaigns perturb the protocol and run the invariant
// checker here). A non-nil hook error aborts the run; Drive returns the
// largest local clock observed either way.
//
// Scheduling is an indexed min-heap keyed by (local clock, agent
// index), so each step costs O(log cores) instead of the O(cores)
// linear scan it replaced. The agent-index tie-break makes the
// interleaving identical to the linear scan's, step for step
// (sched_test.go proves it), so serial output is unchanged.
func Drive(agents []Clocked, hook func(step uint64, now Cycle) error) (Cycle, error) {
	var last Cycle
	var steps uint64
	h := makeSched(agents)
	for len(h.agent) > 0 {
		a := h.agent[0]
		a.Step()
		t := a.Now()
		if t > last {
			last = t
		}
		if a.Done() {
			h.pop()
		} else {
			h.reposition(t)
		}
		if hook != nil {
			steps++
			if err := hook(steps, t); err != nil {
				return last, err
			}
		}
	}
	return last, nil
}
