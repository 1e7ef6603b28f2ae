// Package backend defines the pluggable coherence-protocol backend
// axis: the registry of directory/LLC-housing strategies the engine can
// run, with the metadata every layer above (config presets, the figure
// harness, the model checker, the CLI) keys off. The protocol logic
// itself lives in package core, one engine for every backend: core.New
// picks the backend's housing strategy once and caches the flags below,
// and the request flows branch on those — while this package owns the
// *axis*: stable names, claimed guarantees, parsing, and the single
// source of truth enumerations and goldens pin against.
//
// Backends:
//
//   - zerodev: the paper's proposal. Replacement-disabled sparse
//     directory plus directory-entry caching in the LLC (SpillAll /
//     FPSS / FuseAll) and invalidation-free DE eviction into home
//     memory. Guarantees zero directory eviction victims.
//   - sparsemesi: the classic bounded sparse-directory MESI baseline —
//     the foil the paper argues against. Directory conflicts evict live
//     entries and invalidate every tracked private copy (real DEVs).
//   - dls: a directoryless shared LLC (after arXiv 1206.4753): no
//     separate directory structure at all; tracking lives in the LLC
//     tags (always fused with the block's own line), which forces
//     inclusion. No DEVs by construction; the cost is inclusion
//     victims and mandatory LLC residency for every tracked block.
//   - phasepriority: phase-priority directory coherence (after arXiv
//     1305.3038): a bounded directory that NACKs allocation conflicts
//     and retries under a bounded budget before a priority escalation
//     at the phase boundary forces the victim out. DEVs still occur,
//     but only after the NACK/retry ladder has been charged.
package backend

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ID names a protocol backend. The zero value selects the default
// (zerodev) so existing specs and checkpoints keep their meaning.
type ID string

const (
	// ZeroDEV is the paper's proposal (default backend).
	ZeroDEV ID = "zerodev"
	// SparseMESI is the classic bounded sparse-directory MESI baseline.
	SparseMESI ID = "sparsemesi"
	// DLS is the directoryless shared-LLC backend.
	DLS ID = "dls"
	// PhasePriority is the NACK/retry phase-priority directory backend.
	PhasePriority ID = "phasepriority"
)

// Info is the registry metadata for one backend.
type Info struct {
	ID    ID
	Title string

	// ClaimsZeroDEV marks backends that guarantee zero directory
	// eviction victims. The model checker asserts the zero-DEV property
	// exactly on these backends — and requires a counterexample on the
	// others, so the differentiator is checked rather than assumed.
	ClaimsZeroDEV bool

	// HousesDEsInLLC marks backends whose directory entries may live in
	// LLC lines (spilled or fused). The invariant checker rejects
	// LLC-housed entries on the others.
	HousesDEsInLLC bool

	// UsesHomeSegments marks backends that write directory entries back
	// into home-memory block segments (the WB_DE / GET_DE flows), i.e.
	// backends for which home blocks can be "corrupted".
	UsesHomeSegments bool

	// HasPolicyAxis marks backends with a DE-caching policy sub-axis
	// (SpillAll / FPSS / FuseAll); only zerodev has one.
	HasPolicyAxis bool

	// Faults lists the fault-injector kind names (package faults) whose
	// seams this backend actually exercises. `zerodev audit` validates
	// the -faults selection against this set at flag-parse time so an
	// inapplicable kind is a named error, not an inert clean campaign.
	// Kind names are strings here (not faults.Kind) to keep the
	// dependency arrow pointing faults -> backend; a faults-package test
	// cross-validates every name against the kind table.
	Faults []string
}

// registry lists every backend in presentation order: the proposal
// first, then the baselines it is measured against.
var registry = []Info{
	{
		ID:               ZeroDEV,
		Title:            "ZeroDEV: replacement-disabled directory + DE caching in the LLC (paper proposal)",
		ClaimsZeroDEV:    true,
		HousesDEsInLLC:   true,
		UsesHomeSegments: true,
		HasPolicyAxis:    true,
		Faults: []string{
			"deflip", "wbde-drop", "wbde-dup", "denf-drop",
			"storm", "spurious", "evict-pressure",
		},
	},
	{
		ID:            SparseMESI,
		Title:         "Sparse-directory MESI baseline: bounded NRU directory with real DEVs",
		ClaimsZeroDEV: false,
		Faults:        []string{"denf-drop", "spurious", "dir-victim", "evict-pressure"},
	},
	{
		ID:             DLS,
		Title:          "DLS: directoryless shared LLC, in-tag tracking, forced inclusion (arXiv 1206.4753)",
		ClaimsZeroDEV:  true,
		HousesDEsInLLC: true,
		Faults:         []string{"denf-drop", "spurious", "incl-victim", "evict-pressure"},
	},
	{
		ID:            PhasePriority,
		Title:         "Phase-priority directory: NACK/retry ladder before prioritized eviction (arXiv 1305.3038)",
		ClaimsZeroDEV: false,
		Faults:        []string{"denf-drop", "spurious", "nack-storm", "evict-pressure"},
	},
}

// ErrUnknownBackend is the sentinel every name-resolution failure
// wraps, so callers can refuse-by-name the way checkpoint and grid
// mismatches are refused elsewhere in the repo.
var ErrUnknownBackend = errors.New("unknown protocol backend")

// All returns every registered backend in presentation order.
func All() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Names returns the valid backend names in presentation order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, b := range registry {
		out = append(out, string(b.ID))
	}
	return out
}

// Get returns the metadata for id. The zero ID resolves to ZeroDEV.
func Get(id ID) (Info, bool) {
	if id == "" {
		id = ZeroDEV
	}
	for _, b := range registry {
		if b.ID == id {
			return b, true
		}
	}
	return Info{}, false
}

// MustGet is Get for IDs that are known to be registered (typically
// compile-time constants); it panics on an unknown ID.
func MustGet(id ID) Info {
	b, ok := Get(id)
	if !ok {
		panic(fmt.Sprintf("backend: unregistered backend %q", id))
	}
	return b
}

// Parse resolves one backend name (case-insensitive). The error wraps
// ErrUnknownBackend and names the valid set.
func Parse(name string) (ID, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return ZeroDEV, nil
	}
	for _, b := range registry {
		if string(b.ID) == n {
			return b.ID, nil
		}
	}
	return "", fmt.Errorf("%w %q (valid: %s)", ErrUnknownBackend, name, strings.Join(Names(), ", "))
}

// ParseList parses a comma-separated backend list; "all" (or "")
// selects every backend in presentation order. Duplicates are
// rejected by name so a sweep never silently runs a backend twice.
func ParseList(s string) ([]ID, error) {
	if s == "" || strings.EqualFold(strings.TrimSpace(s), "all") {
		out := make([]ID, 0, len(registry))
		for _, b := range registry {
			out = append(out, b.ID)
		}
		return out, nil
	}
	var out []ID
	seen := make(map[ID]bool)
	for _, part := range strings.Split(s, ",") {
		id, err := Parse(part)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("backend %q listed twice", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}

// WriteList renders the registry for the CLI listings (`zerodev list`,
// `zerodev run -list-backends`, `zerodev audit -list`), pinned by
// golden tests: one line per backend with its guarantee flags.
func WriteList(w io.Writer) {
	fmt.Fprintln(w, "Protocol backends (-backend, comma-separated or \"all\"):")
	for _, b := range registry {
		var flags []string
		if b.ClaimsZeroDEV {
			flags = append(flags, "zero-DEV")
		} else {
			flags = append(flags, "real DEVs")
		}
		if b.HousesDEsInLLC {
			flags = append(flags, "DEs in LLC")
		}
		if b.UsesHomeSegments {
			flags = append(flags, "WB_DE to home")
		}
		if b.HasPolicyAxis {
			flags = append(flags, "policy axis")
		}
		fmt.Fprintf(w, "  %-14s %s\n", b.ID, b.Title)
		fmt.Fprintf(w, "  %-14s [%s]\n", "", strings.Join(flags, ", "))
		fmt.Fprintf(w, "  %-14s faults: %s\n", "", strings.Join(b.Faults, ", "))
	}
}
