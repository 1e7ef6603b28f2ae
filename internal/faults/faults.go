// Package faults implements deterministic, seed-driven fault-injection
// campaigns against the ZeroDEV protocol seams, paired with an online
// invariant auditor.
//
// Injection sites are chosen so the paper's recovery machinery must fire
// for the simulation to survive:
//
//   - bit-flips in spilled/fused DE encodings at LLC read time, which
//     force quarantine (WB_DE of the pre-flip entry to home memory) and
//     later re-fetch through the corrupted-block / GET_DE flows
//     (Figs. 15-16);
//   - dropped or duplicated WB_DE messages, absorbed by retransmission
//     and the home agent's idempotent corrupted-merge;
//   - dropped DENF_NACK responses, absorbed by forward retransmission;
//   - forced DE-eviction storms, stressing the segment-fallback path;
//   - spurious whole-block invalidations, stressing last-copy retrieval
//     (§III-D4).
//
// Since the protocol backend became an axis (internal/backend), the
// fault model is backend-aware: each alternative protocol gets
// injectors aimed at the seams its own paper says are load-bearing:
//
//   - NACK storms and dropped-retry-budget perturbations at the
//     phase-priority admission ladder (arXiv 1305.3038), via the
//     core.Faults admission boundary;
//   - forced inclusion-victim storms and in-tag sharer corruption for
//     DLS, whose coherence state rides the LLC tags (arXiv 1206.4753);
//   - sparse-directory victim-entry injection and NRU-state scrambling
//     for the bounded MESI baseline;
//   - a cross-backend eviction-pressure storm that victimizes LLC lines
//     through each backend's own displacement flow.
//
// backend.Info.Faults declares which kinds can fire on which backend;
// Applicable derives the mask and ValidateKinds turns an impossible
// selection into a named error instead of an inert clean campaign.
//
// Every stochastic decision draws from one sim.RNG per campaign cell, so
// a fixed seed replays the identical fault sequence at any worker count.
package faults

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/coher"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Kind enumerates the fault injectors.
type Kind int

const (
	// DEFlip flips one random bit of a housed directory entry's 64-byte
	// encoding when a request touches it, at LLC read time.
	DEFlip Kind = iota
	// WBDEDrop loses a WB_DE message; the sender retransmits after a
	// timeout, so home memory sees the entry late.
	WBDEDrop
	// WBDEDup delivers a WB_DE message twice; the home-memory segment
	// write must be idempotent.
	WBDEDup
	// DENFDrop loses a DENF_NACK response to a cross-socket forward; the
	// requester's home agent retransmits the forward.
	DENFDrop
	// EvictStorm force-evicts a burst of housed directory entries to home
	// memory, so later requests must take the segment-fallback and GET_DE
	// paths.
	EvictStorm
	// SpuriousInval invalidates every copy of a random privately-held
	// block, exercising the socket-eviction notice and last-copy flows.
	SpuriousInval
	// NACKStorm perturbs a conflicted phase-priority admission at the
	// core.Faults admission boundary: either the requester is NACKed for
	// extra retry rounds beyond the protocol's budget (a storm), or the
	// retry messages are lost and the ladder's latency charge collapses
	// (a dropped retry budget). Latency-only; coherence state is
	// untouched.
	NACKStorm
	// InclVictim force-evicts fused (in-tag tracked) LLC lines on an
	// inclusive backend, driving the §III-F inclusion-eviction flow:
	// every tracked holder is invalidated with the line. An ECC-caught
	// in-tag sharer corruption takes the same conservative recovery.
	InclVictim
	// DirVictim force-evicts a live sparse-directory entry on a
	// real-DEV backend through the ordinary DEV flow, and scrambles the
	// directory's NRU state so organic victim selection diverges.
	DirVictim
	// EvictPressure victimizes whatever the LLC holds for a block —
	// spilled/fused entries and data lines — through the backend's own
	// displacement flow (WB_DE on zerodev, inclusion eviction on DLS,
	// plain writeback for data), composing with every other kind.
	EvictPressure

	NumKinds int = iota
)

// kinds declares every injector kind once: its name (the -faults and
// backend.Info.Faults spelling), its default per-opportunity injection
// probability and its -list description. Rates are per housed-DE touch
// for deflip, per WB_DE message for wbde-*, per NACK for denf-drop, per
// conflicted admission for nack-storm, and per scheduler step for the
// rest.
var kinds = [NumKinds]struct {
	name string
	rate float64
	desc string
}{
	DEFlip:        {"deflip", 0.02, "flip one bit of a housed DE encoding at LLC read time"},
	WBDEDrop:      {"wbde-drop", 0.25, "lose a WB_DE message (delivered late by retransmission)"},
	WBDEDup:       {"wbde-dup", 0.25, "deliver a WB_DE message twice (idempotent merge)"},
	DENFDrop:      {"denf-drop", 0.5, "lose a DENF_NACK (forward retransmitted)"},
	EvictStorm:    {"storm", 0.01, "force a burst of DE evictions to home memory"},
	SpuriousInval: {"spurious", 0.02, "invalidate every copy of a random private block"},
	NACKStorm:     {"nack-storm", 0.2, "stretch or collapse a conflicted phase-priority admission"},
	InclVictim:    {"incl-victim", 0.02, "force inclusion evictions of in-tag tracked LLC lines"},
	DirVictim:     {"dir-victim", 0.02, "force a sparse-directory victim through the DEV flow"},
	EvictPressure: {"evict-pressure", 0.02, "victimize LLC lines through the backend's displacement flow"},
}

func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kinds[k].name
}

// Rate returns the kind's default per-opportunity probability.
func (k Kind) Rate() float64 { return kinds[k].rate }

// kindNamed returns the kind spelled n.
func kindNamed(n string) (Kind, bool) {
	for k := range kinds {
		if kinds[k].name == n {
			return Kind(k), true
		}
	}
	return 0, false
}

// AllKinds lists every injector kind.
func AllKinds() []Kind {
	ks := make([]Kind, NumKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// ParseKinds parses a comma-separated injector list ("all" enables
// every kind) into an enable mask.
func ParseKinds(s string) ([NumKinds]bool, error) {
	var mask [NumKinds]bool
	if strings.TrimSpace(s) == "all" {
		for i := range mask {
			mask[i] = true
		}
		return mask, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, ok := kindNamed(f)
		if !ok {
			known := make([]string, NumKinds)
			for i := range kinds {
				known[i] = kinds[i].name
			}
			return mask, fmt.Errorf("faults: unknown injector %q (known: %s, or \"all\")",
				f, strings.Join(known, ", "))
		}
		mask[k] = true
	}
	return mask, nil
}

// ErrInapplicableKind is the sentinel wrapped when a selected injector
// kind cannot fire on any selected backend, so `zerodev audit` refuses
// the combination by name instead of running an inert clean campaign.
var ErrInapplicableKind = errors.New("faults: injector not applicable to selected backend(s)")

// Applicable returns the kind mask backend id's seams can actually
// fire, derived from the registry's declared fault-kind names. Unknown
// names in the registry are a programming error caught by test.
func Applicable(id backend.ID) [NumKinds]bool {
	var mask [NumKinds]bool
	for _, n := range backend.MustGet(id).Faults {
		if k, ok := kindNamed(n); ok {
			mask[k] = true
		}
	}
	return mask
}

// ApplicableNames returns the declared kind names for id, for error
// messages and listings.
func ApplicableNames(id backend.ID) []string {
	return append([]string(nil), backend.MustGet(id).Faults...)
}

// ValidateKinds rejects enabled kinds that no backend in ids can fire.
// The returned error wraps ErrInapplicableKind and names the offending
// kinds plus each backend's applicable set. Call it only for explicit
// -faults selections; "all" is intersected per cell instead.
func ValidateKinds(enabled [NumKinds]bool, ids []backend.ID) error {
	var union [NumKinds]bool
	for _, id := range ids {
		m := Applicable(id)
		for i := range union {
			union[i] = union[i] || m[i]
		}
	}
	var dead []string
	for i, on := range enabled {
		if on && !union[i] {
			dead = append(dead, Kind(i).String())
		}
	}
	if len(dead) == 0 {
		return nil
	}
	var per []string
	for _, id := range ids {
		per = append(per, fmt.Sprintf("%s: %s", id, strings.Join(ApplicableNames(id), ", ")))
	}
	return fmt.Errorf("%w: %s cannot fire (applicable — %s)",
		ErrInapplicableKind, strings.Join(dead, ", "), strings.Join(per, "; "))
}

// Intersect returns enabled restricted to the kinds applicable to id —
// the per-cell mask a campaign actually runs with.
func Intersect(enabled [NumKinds]bool, id backend.ID) [NumKinds]bool {
	m := Applicable(id)
	for i := range m {
		m[i] = m[i] && enabled[i]
	}
	return m
}

// Config controls one campaign's fault mix and auditing cadence.
type Config struct {
	// Enabled masks the injector kinds.
	Enabled [NumKinds]bool
	// AuditEvery runs core.CheckInvariants every N scheduler steps
	// (plus once at completion). Zero audits only at completion.
	AuditEvery int
	// StormSize is how many housed entries one EvictStorm retires.
	StormSize int
	// RateScale multiplies every injector's default rate.
	RateScale float64
	// CrashCell, when it names a campaign cell, panics that cell
	// mid-run — the harness's crash-resilience test hook.
	CrashCell string
	// BreakKind names the injector kind whose known-bad variant is
	// armed ("wbde-drop", "nack-storm", "incl-victim", "dir-victim" or
	// "evict-pressure"): instead of routing the perturbation through the
	// protocol's recovery flow, the injector deliberately corrupts state
	// the way a buggy recovery would (a live PutDE dropped, orphaned
	// directory entries, in-place in-tag corruption, dropped WB_DE on
	// displacement). Self-tests run it with AuditEvery=1 to prove the
	// online auditor catches each defect within one interval; it is not
	// reachable from the CLI.
	BreakKind string
}

// CheckpointTag renders the CLI-settable part of c that shapes audit
// cell results — the enabled injector set, AuditEvery and RateScale —
// for audit's checkpoint key, so a checkpoint resumes only under the
// fault configuration that computed its cells.
func (c Config) CheckpointTag() string {
	var on []string
	for k, en := range c.Enabled {
		if en {
			on = append(on, Kind(k).String())
		}
	}
	return fmt.Sprintf("kinds=%s audit-every=%d rate-scale=%g", strings.Join(on, ","), c.AuditEvery, c.RateScale)
}

// EffectiveRate returns the injection probability actually used for k:
// the default per-opportunity rate times RateScale, clamped to [0, 1].
// The documented boundary contract: RateScale 0 disables every kind;
// a scale large enough to push a rate past 1 saturates at certainty
// (fires at every opportunity) rather than erroring; negative scales
// are rejected at flag-parse time and clamp to 0 here.
func (c Config) EffectiveRate(k Kind) float64 {
	r := k.Rate() * c.RateScale
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// DefaultConfig enables every injector at default rates.
func DefaultConfig() Config {
	cfg := Config{AuditEvery: 1000, StormSize: 8, RateScale: 1}
	for i := range cfg.Enabled {
		cfg.Enabled[i] = true
	}
	return cfg
}

// Event is one log entry in the injector's bounded fault log.
type Event struct {
	Step uint64
	Kind Kind
	Addr coher.Addr
	Note string
}

func (e Event) String() string {
	return fmt.Sprintf("step %6d  %-9s  %#010x  %s", e.Step, e.Kind, uint64(e.Addr), e.Note)
}

// logCap bounds the fault log; only the tail is kept for diagnostics.
const logCap = 12

// targets names the engines and cores an injector may perturb between
// scheduler steps.
type targets struct {
	engines []*core.Engine
	cores   [][]*cpu.Core // per engine
}

// Injector drives every fault kind for one campaign cell. It implements
// core.Faults (DE bit-flips and admission perturbation) and
// socket.ForwardFaults (NACK drops); chaosHome routes WB_DE/PutDE
// messages through it; perturb injects the step-granular kinds. All
// methods run on the cell's single simulation goroutine, so no locking
// is needed.
type Injector struct {
	rng *sim.RNG
	cfg Config

	step   uint64
	counts [NumKinds]uint64

	// Bit-flip outcome classification.
	FlipsDetected uint64 // decode failed: format violation caught on read
	FlipsMasked   uint64 // flip hit an unused bit: entry unchanged
	FlipsSilent   uint64 // entry silently changed; caught by ECC, quarantined

	// BreakKind bookkeeping.
	BrokenInjections uint64
	FirstBreakStep   uint64

	log   []Event
	addrs []coher.Addr // scratch for perturb target collection
	tg    *targets     // set by RunCell: what perturb and the admission break reach
}

// NewInjector builds an injector drawing from rng.
func NewInjector(cfg Config, rng *sim.RNG) *Injector {
	return &Injector{rng: rng, cfg: cfg}
}

// Counts returns per-kind injection counts (flips count only when they
// altered state; masked flips are excluded).
func (in *Injector) Counts() [NumKinds]uint64 { return in.counts }

// LogTail returns the retained tail of the fault log.
func (in *Injector) LogTail() []Event { return append([]Event(nil), in.log...) }

func (in *Injector) roll(k Kind) bool {
	if !in.cfg.Enabled[k] {
		return false
	}
	return in.rng.Bool(in.cfg.EffectiveRate(k))
}

// breaking reports whether k's known-bad variant is armed.
func (in *Injector) breaking(k Kind) bool {
	return in.cfg.BreakKind == kinds[k].name
}

// markBroken records a deliberate state corruption made at step for the
// self-tests.
func (in *Injector) markBroken(k Kind, step uint64, addr coher.Addr, what string) {
	in.BrokenInjections++
	if in.FirstBreakStep == 0 {
		in.FirstBreakStep = step
	}
	in.note(k, addr, "BROKEN RECOVERY: "+what)
}

// fired counts one injection of kind k and logs it.
func (in *Injector) fired(k Kind, addr coher.Addr, note string) {
	in.counts[k]++
	in.note(k, addr, note)
}

func (in *Injector) note(k Kind, addr coher.Addr, note string) {
	if len(in.log) == logCap {
		copy(in.log, in.log[1:])
		in.log = in.log[:logCap-1]
	}
	in.log = append(in.log, Event{Step: in.step, Kind: k, Addr: addr, Note: note})
}

// CorruptHousedDE implements core.Faults: it flips one random bit of
// the entry's spilled encoding (the shared entry serialization of
// Figs. 9a/11a) and classifies the outcome. Returning true tells the
// engine ECC caught a changed entry, which quarantines it to home
// memory; detected format violations take the same path, since the
// reader cannot trust the line.
func (in *Injector) CorruptHousedDE(addr coher.Addr, ent coher.Entry, fused bool) bool {
	if !in.roll(DEFlip) {
		return false
	}
	line := coher.EncodeSpilled(ent)
	bit := in.rng.Intn(len(line) * 8)
	line[bit/8] ^= 1 << (bit % 8)
	form := "spilled"
	if fused {
		form = "fused"
	}
	dec, err := coher.DecodeSpilled(line)
	switch {
	case err != nil:
		in.FlipsDetected++
		in.fired(DEFlip, addr, fmt.Sprintf("%s DE bit %d: format violation detected, quarantined", form, bit))
	case dec.Same(ent):
		in.FlipsMasked++
		in.note(DEFlip, addr, fmt.Sprintf("%s DE bit %d: masked (unused bit)", form, bit))
		return false
	default:
		in.FlipsSilent++
		in.fired(DEFlip, addr, fmt.Sprintf("%s DE bit %d: silent change caught by ECC, quarantined", form, bit))
	}
	return true
}

// DropDENFNack implements socket.ForwardFaults: it decides whether the
// NACK from socket f for addr is lost in the interconnect.
func (in *Injector) DropDENFNack(f int, addr coher.Addr) bool {
	if !in.roll(DENFDrop) {
		return false
	}
	in.fired(DENFDrop, addr, fmt.Sprintf("DENF_NACK from socket %d lost; forward retransmitted", f))
	return true
}

// AdmitFault implements core.Faults. The engine consults it after
// pricing a phase-priority request's admission; charge > 0
// means the admission conflicted (phase-priority's NACK/retry ladder
// fired), which is the NACKStorm opportunity: half the injections
// stretch the ladder with extra NACK rounds, half drop the retry budget
// so the escalation's charge is never paid. Both are latency-only —
// coherence state is untouched — so a correct protocol must absorb
// either without an invariant wobble.
func (in *Injector) AdmitFault(t sim.Cycle, addr coher.Addr, charge sim.Cycle) sim.Cycle {
	if charge <= 0 {
		return charge
	}
	if in.breaking(NACKStorm) {
		// Known-bad variant: escalation-without-invalidation. The broken
		// home "resolves" the conflict by discarding a live tracked entry
		// outright, leaving its holders orphaned in their private caches.
		if in.tg != nil && len(in.tg.engines) > 0 {
			eng := in.tg.engines[0]
			if a, ok := firstTrackedAddr(eng, in.tg.cores[0]); ok {
				eng.Directory().Free(a)
				in.markBroken(NACKStorm, in.step, a, "conflicted admission freed a live entry without invalidations")
			}
		}
		return charge
	}
	if !in.roll(NACKStorm) {
		return charge
	}
	if in.rng.Bool(0.5) {
		rounds := sim.Cycle(1 + in.rng.Intn(4))
		in.fired(NACKStorm, addr, fmt.Sprintf("NACK storm: +%d extra retry rounds", rounds))
		return charge * (1 + rounds)
	}
	in.fired(NACKStorm, addr, "retry budget dropped: admission charge collapsed")
	return 0
}

// firstTrackedAddr finds a privately-cached block whose entry is in the
// sparse directory, scanning cores in index order for determinism.
func firstTrackedAddr(eng *core.Engine, cores []*cpu.Core) (coher.Addr, bool) {
	var found coher.Addr
	ok := false
	for _, c := range cores {
		if ok {
			break
		}
		c.ForEachBlock(func(a coher.Addr, _ coher.PrivState) {
			if !ok {
				if _, live := eng.Directory().Lookup(a); live {
					found, ok = a, true
				}
			}
		})
	}
	return found, ok
}

// perturb runs once per scheduler step, between transactions, and fires
// the step-granular injectors against in.tg.
func (in *Injector) perturb(now sim.Cycle) {
	in.step++
	tg := in.tg
	if in.roll(EvictStorm) {
		eng := tg.engines[in.rng.Intn(len(tg.engines))]
		if in.collect(EvictStorm, eng, nil) {
			// A storm that forced nothing (a backend with no WB_DE flow)
			// did not inject a fault and must not count as one.
			if n, _ := in.storm(func(a coher.Addr) bool { return eng.ForceDEWriteback(now, a) }); n > 0 {
				in.fired(EvictStorm, in.addrs[0], fmt.Sprintf("eviction storm forced %d WB_DE", n))
			}
		}
	}
	if in.roll(SpuriousInval) {
		ei := in.rng.Intn(len(tg.engines))
		cores := tg.cores[ei]
		if in.collect(SpuriousInval, nil, cores[in.rng.Intn(len(cores))]) {
			if a := in.draw(); tg.engines[ei].InjectInvalidation(now, a) {
				in.fired(SpuriousInval, a, "spurious invalidation of all copies")
			}
		}
	}
	if in.roll(InclVictim) {
		eng := tg.engines[in.rng.Intn(len(tg.engines))]
		if in.collect(InclVictim, eng, nil) {
			switch {
			case in.breaking(InclVictim):
				// Known-bad variant: the "ECC recovery" rewrites the in-tag
				// entry with a corrupted holder set instead of conservatively
				// evicting the line.
				if a := in.draw(); corruptInTagEntry(eng, a) {
					in.markBroken(InclVictim, in.step, a, "in-tag entry rewritten with corrupted holder set")
				}
			case in.rng.Bool(0.5):
				// In-tag sharer corruption caught by ECC: the line's tracking
				// can no longer be trusted, so the conservative recovery is an
				// inclusion eviction of that single line.
				if a := in.draw(); eng.ForceInclusionEviction(now, a) {
					in.fired(InclVictim, a, "in-tag corruption caught by ECC; line inclusion-evicted")
				}
			default:
				if n, first := in.storm(func(a coher.Addr) bool { return eng.ForceInclusionEviction(now, a) }); n > 0 {
					in.fired(InclVictim, first, fmt.Sprintf("inclusion-victim storm evicted %d tracked lines", n))
				}
			}
		}
	}
	if in.roll(DirVictim) {
		ei := in.rng.Intn(len(tg.engines))
		eng := tg.engines[ei]
		if a, ok := firstTrackedAddr(eng, tg.cores[ei]); ok {
			switch {
			case in.breaking(DirVictim):
				// Known-bad variant: the victim's entry is freed without the
				// DEV invalidations, orphaning every tracked private copy.
				eng.Directory().Free(a)
				in.markBroken(DirVictim, in.step, a, "victim entry freed without DEV invalidations")
			case in.rng.Bool(0.25):
				// NRU-state scramble: replacement metadata only, so organic
				// victim selection diverges while coherence state holds.
				if eng.ScrambleDirectoryNRU(a) {
					in.fired(DirVictim, a, "directory NRU state scrambled")
				}
			default:
				if eng.ForceDirectoryVictim(now, a) {
					in.fired(DirVictim, a, "directory victim forced through the DEV flow")
				}
			}
		}
	}
	if in.roll(EvictPressure) {
		eng := tg.engines[in.rng.Intn(len(tg.engines))]
		if in.collect(EvictPressure, eng, nil) {
			if in.breaking(EvictPressure) {
				// Known-bad variant: displacement drops a housed live entry on
				// the floor — no WB_DE, no invalidations.
				a := in.draw()
				if v := eng.LLC().Probe(a); v.HasDE() {
					eng.LLC().Evict(v, v.DEWay)
					in.markBroken(EvictPressure, in.step, a, "housed entry dropped on displacement without WB_DE")
				}
			} else if n, first := in.storm(func(a coher.Addr) bool { return eng.ForceLLCEviction(now, a) }); n > 0 {
				in.fired(EvictPressure, first, fmt.Sprintf("eviction pressure victimized %d LLC lines", n))
			}
		}
	}
}

// collect refills in.addrs with the targets kind k draws from and
// reports whether there are any: the blocks core c holds for
// SpuriousInval; for the other kinds, eng's housed directory entries
// (only the fused ones for InclVictim), followed for EvictPressure by its
// data lines.
func (in *Injector) collect(k Kind, eng *core.Engine, c *cpu.Core) bool {
	in.addrs = in.addrs[:0]
	if k == SpuriousInval {
		c.ForEachBlock(func(a coher.Addr, _ coher.PrivState) { in.addrs = append(in.addrs, a) })
		return len(in.addrs) > 0
	}
	eng.LLC().ForEachDE(func(a coher.Addr, fused bool, _ coher.Entry) {
		if fused || k != InclVictim {
			in.addrs = append(in.addrs, a)
		}
	})
	if k == EvictPressure {
		eng.LLC().ForEachData(func(a coher.Addr, _ bool) { in.addrs = append(in.addrs, a) })
	}
	return len(in.addrs) > 0
}

// draw picks one collected target.
func (in *Injector) draw() coher.Addr { return in.addrs[in.rng.Intn(len(in.addrs))] }

// storm forces StormSize drawn targets through force and returns how
// many it accepted and the first accepted.
func (in *Injector) storm(force func(coher.Addr) bool) (n int, first coher.Addr) {
	for i := 0; i < in.cfg.StormSize; i++ {
		if a := in.draw(); force(a) {
			if n == 0 {
				first = a
			}
			n++
		}
	}
	return n, first
}

// corruptInTagEntry rewrites the fused (in-tag) entry for addr with a
// deterministically wrong holder set: an owned entry's owner rotates to
// the next core, a shared entry gains the first non-member core (or
// loses its first member when every core already shares). Used only by
// the InclVictim known-bad variant.
func corruptInTagEntry(eng *core.Engine, addr coher.Addr) bool {
	v := eng.LLC().Probe(addr)
	if !v.Fused {
		return false
	}
	ent := eng.LLC().Entry(v)
	cores := eng.Params().Cores
	switch ent.State {
	case coher.DirOwned:
		ent.Owner = coher.CoreID((int(ent.Owner) + 1) % cores)
	case coher.DirShared:
		added := false
		for c := 0; c < cores; c++ {
			if !ent.Sharers.Contains(coher.CoreID(c)) {
				ent.Sharers.Add(coher.CoreID(c))
				added = true
				break
			}
		}
		if !added {
			ent.Sharers.Remove(ent.Sharers.First())
		}
	default:
		return false
	}
	eng.LLC().SetEntry(v, ent)
	return true
}

// retryCycles models the retransmission timeout for lost or duplicated
// home-memory messages.
const retryCycles = 200

// chaosHome decorates a core.Home, interposing the injector on the
// WB_DE and PutDE message flows. The synchronous engine model lets a
// dropped message be expressed as its retransmitted (delayed) delivery
// and a duplicated one as two deliveries — the home's segment write is
// idempotent, which is exactly the property under test.
type chaosHome struct {
	core.Home
	in *Injector
}

func (h *chaosHome) WBDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	switch {
	case h.in.roll(WBDEDrop):
		h.in.fired(WBDEDrop, addr, "WB_DE lost; retransmitted after timeout")
		h.Home.WBDE(t+retryCycles, socket, addr, e)
	case h.in.roll(WBDEDup):
		h.in.fired(WBDEDup, addr, "WB_DE duplicated; second delivery merged idempotently")
		h.Home.WBDE(t, socket, addr, e)
		h.Home.WBDE(t+retryCycles, socket, addr, e)
	default:
		h.Home.WBDE(t, socket, addr, e)
	}
}

// PutDE is where wbde-drop's known-bad variant bites: live recovered
// entries are silently discarded instead of written to their segment,
// leaving home memory claiming holders that no longer exist. The online
// auditor must flag this within one audit interval.
func (h *chaosHome) PutDE(t sim.Cycle, socket int, addr coher.Addr, e coher.Entry) {
	if h.in.breaking(WBDEDrop) && e.Live() {
		// Dated to the step currently executing: the drop happens inside
		// a transaction, before perturb counts the step.
		h.in.markBroken(WBDEDrop, h.in.step+1, addr, "live PutDE dropped")
		return
	}
	h.Home.PutDE(t, socket, addr, e)
}

// BrokenRecoveryHome decorates a home agent with wbde-drop's known-bad
// variant and nothing else: live PutDE messages (recovered entries being
// written back to their home segment) are silently dropped, while every
// stochastic injector stays disabled. The model checker uses it as a
// known-bad protocol variant that must produce a counterexample —
// validating that the explorer's invariants can actually fail.
func BrokenRecoveryHome(h core.Home) core.Home {
	in := NewInjector(Config{BreakKind: WBDEDrop.String()}, sim.NewRNG(0))
	return &chaosHome{Home: h, in: in}
}
