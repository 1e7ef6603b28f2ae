package faults

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// This file extends the fault model from the protocol layer to the
// campaign-service layer (internal/serve): seed-driven injectors for
// the failure modes a distributed coordinator/worker fleet exhibits.
// The same discipline applies as for the protocol injectors — every
// stochastic decision draws from one seeded RNG, so a fixed seed
// replays the identical chaos scenario — and the service must absorb
// every injection with exactly-once cell accounting (the chaos harness
// in internal/serve asserts it over hundreds of seeded scenarios).

// ServiceKind enumerates the service-layer chaos injectors.
type ServiceKind int

const (
	// DupGrant makes the coordinator grant a second, concurrent lease on
	// a cell that is already leased, so two workers race to deliver the
	// same result (the second delivery must be deduplicated).
	DupGrant ServiceKind = iota
	// WorkerStall makes a worker sit on its lease without heartbeating
	// until the lease expires, forcing the expiry → backoff → re-queue
	// path (and possibly a late, stale delivery afterwards).
	WorkerStall
	// StaleHeartbeat makes a worker renew a lease that has already
	// expired or been superseded; the coordinator must refuse the
	// renewal rather than resurrect the lease.
	StaleHeartbeat
	// DoubleDelivery makes a worker send its completed result twice; the
	// second delivery must be recorded as a duplicate, never double
	// counted.
	DoubleDelivery

	NumServiceKinds int = iota
)

var serviceKindNames = [NumServiceKinds]string{
	"dup-grant", "worker-stall", "stale-heartbeat", "double-delivery",
}

func (k ServiceKind) String() string {
	if k < 0 || int(k) >= NumServiceKinds {
		return fmt.Sprintf("ServiceKind(%d)", int(k))
	}
	return serviceKindNames[k]
}

// defaultServiceRates are per-opportunity injection probabilities:
// dup-grant per lease request, worker-stall per held lease per turn,
// stale-heartbeat per dead lease per turn, double-delivery per
// completed cell.
var defaultServiceRates = [NumServiceKinds]float64{0.10, 0.15, 0.25, 0.25}

// ServiceChaos decides, per opportunity, whether to inject each
// service-layer fault. It is safe for concurrent use (the coordinator
// consults it from HTTP handler goroutines) and counts every injection
// per kind for scenario accounting.
type ServiceChaos struct {
	mu     sync.Mutex
	rng    *sim.RNG
	rates  [NumServiceKinds]float64
	counts [NumServiceKinds]uint64
}

// NewServiceChaos returns an injector drawing from the given seed at
// the default rates. A nil *ServiceChaos is valid and injects nothing,
// so production code consults it unconditionally.
func NewServiceChaos(seed uint64) *ServiceChaos {
	return &ServiceChaos{rng: sim.NewRNG(seed).Fork(0x5E), rates: defaultServiceRates}
}

// SetRate overrides one injector's per-opportunity probability.
func (c *ServiceChaos) SetRate(k ServiceKind, p float64) { c.rates[k] = p }

// Hit reports whether to inject kind k at this opportunity, counting
// the injection when it fires. Nil receivers never inject.
func (c *ServiceChaos) Hit(k ServiceKind) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.rng.Bool(c.rates[k]) {
		return false
	}
	c.counts[k]++
	return true
}

// Injected returns how many times kind k fired.
func (c *ServiceChaos) Injected(k ServiceKind) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// TotalInjected sums injections across every kind.
func (c *ServiceChaos) TotalInjected() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.counts {
		n += v
	}
	return n
}
