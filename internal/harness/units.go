package harness

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// unit is one schedulable workload: a multithreaded application, a
// rate-mode application, or a heterogeneous mix. make builds fresh
// streams (generators are single-use).
type unit struct {
	name string
	mt   bool // parallel speedup vs weighted speedup
	make func(cores int) []cpu.Stream
}

func appUnit(o Options, prof workload.Profile) unit {
	if isMT(prof.Suite) {
		return unit{name: prof.Name, mt: true, make: func(cores int) []cpu.Stream {
			return workload.Threads(prof, cores, o.Accesses, o.Scale, o.Seed)
		}}
	}
	return unit{name: prof.Name, make: func(cores int) []cpu.Stream {
		return workload.Rate(prof, cores, o.Accesses, o.Scale, o.Seed)
	}}
}

func mixUnit(o Options, name string, profs []workload.Profile) unit {
	return unit{name: name, make: func(cores int) []cpu.Stream {
		ps := profs
		for len(ps) < cores {
			ps = append(ps, profs...)
		}
		return workload.Mix(ps[:cores], o.Accesses, o.Scale, o.Seed)
	}}
}

// groupUnits expands an evaluation group (Figs. 25-27's x-axis) into
// units.
func groupUnits(o Options, group string) []unit {
	switch group {
	case "CPU-RATE":
		group = "CPU2017"
	case "CPU-HET":
		n := hetMixCount(o)
		var units []unit
		for i, mix := range workload.HetMixes(n, 8) {
			units = append(units, mixUnit(o, fmt.Sprintf("W%d", i+1), mix))
		}
		return units
	}
	var units []unit
	for _, prof := range suiteApps(o, group) {
		units = append(units, appUnit(o, prof))
	}
	return units
}

// unitsOf concatenates the units of several groups, in group order.
func unitsOf(o Options, groups []string) []unit {
	var units []unit
	for _, g := range groups {
		units = append(units, groupUnits(o, g)...)
	}
	return units
}

func unitNames(units []unit) []string {
	names := make([]string, len(units))
	for i, u := range units {
		names[i] = u.name
	}
	return names
}

func hetMixCount(o Options) int {
	if o.Quick {
		return 4
	}
	return 36
}
