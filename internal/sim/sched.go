package sim

// This file implements the scheduler data structure behind Drive: an
// indexed binary min-heap over the not-yet-done agents, keyed by
// (local clock, submission index). The secondary key reproduces the
// historical linear scan's tie-break — among agents at the same local
// time, the one submitted first runs first — so the heap scheduler's
// interleaving is step-for-step identical to the linear scan's
// (sched_test.go proves equivalence over randomized agent sets).
//
// Only the stepped agent's clock ever changes (agents advance their own
// local time; externally initiated coherence actions never touch
// another core's clock), so after each step only the heap root needs
// re-positioning: one sift-down, O(log n) instead of the linear scan's
// O(n) per step. At the paper's 128-core and 4×128-core configurations
// this is the difference between ~5 and ~500 comparisons per scheduler
// step on a path executed once per memory access.

// schedHeap stores the heap as parallel slices to keep the hot
// comparisons on cached integers rather than interface calls: clock[i]
// mirrors agent[i].Now(), and order[i] is the agent's index in the
// original Drive slice.
type schedHeap struct {
	clock []Cycle
	order []int32
	agent []Clocked
}

// makeSched builds the heap from the agents that still have work.
// Done-at-start agents are never scheduled, matching the linear scan.
func makeSched(agents []Clocked) schedHeap {
	h := schedHeap{
		clock: make([]Cycle, 0, len(agents)),
		order: make([]int32, 0, len(agents)),
		agent: make([]Clocked, 0, len(agents)),
	}
	for i, a := range agents {
		if a.Done() {
			continue
		}
		h.clock = append(h.clock, a.Now())
		h.order = append(h.order, int32(i))
		h.agent = append(h.agent, a)
	}
	for i := len(h.agent)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *schedHeap) less(i, j int) bool {
	return h.clock[i] < h.clock[j] ||
		(h.clock[i] == h.clock[j] && h.order[i] < h.order[j])
}

func (h *schedHeap) swap(i, j int) {
	h.clock[i], h.clock[j] = h.clock[j], h.clock[i]
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.agent[i], h.agent[j] = h.agent[j], h.agent[i]
}

func (h *schedHeap) siftDown(i int) {
	n := len(h.agent)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// reposition re-sinks the root after its agent's clock advanced to t.
// Clocks only move forward, so the root can only sink.
func (h *schedHeap) reposition(t Cycle) {
	h.clock[0] = t
	h.siftDown(0)
}

// pop removes the root (its agent finished).
func (h *schedHeap) pop() {
	n := len(h.agent) - 1
	h.swap(0, n)
	h.clock = h.clock[:n]
	h.order = h.order[:n]
	h.agent = h.agent[:n]
	if n > 0 {
		h.siftDown(0)
	}
}
