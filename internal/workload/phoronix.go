package workload

import (
	"time"

	"powerdiv/internal/units"
)

// PhoronixSet returns the four Phoronix applications of Table IV, with
// phase scripts calibrated so that a solo run inside a 6-vCPU VM on
// SMALL INTEL reproduces the Table V reference values:
//
//	CLOVERLEAF    36.46 kJ over 516 s  (≈70.7 W machine average)
//	DACAPO        13.51 kJ over 364 s  (≈37.1 W)
//	BUILD2        26.75 kJ over 384 s  (≈69.7 W)
//	COMPRESS-7ZIP 23.53 kJ over 396 s  (≈59.4 W)
//
// and the Fig 10 temporal signatures: CLOVERLEAF's periodic hydro
// iterations, DACAPO's bursty runs with garbage-collection troughs,
// BUILD2's long parallel compilation with serial configure/link dips, and
// COMPRESS-7ZIP's alternation between parallel compression and
// lighter-threaded decompression.
func PhoronixSet() []Workload {
	out := make([]Workload, len(phoronixDefs))
	for i, d := range phoronixDefs {
		out[i] = d.build()
	}
	return out
}

// phoronixDefs names the Table IV applications in table order; each
// build function returns the workload of that name.
var phoronixDefs = [...]struct {
	name  string
	build func() Workload
}{
	{"cloverleaf", cloverleaf},
	{"dacapo", dacapo},
	{"build2", build2},
	{"compress-7zip", compress7zip},
}

// PhoronixByName returns the Phoronix workload with the given name. Only
// the matched application is materialised.
func PhoronixByName(name string) (Workload, bool) {
	for _, d := range phoronixDefs {
		if d.name == name {
			return d.build(), true
		}
	}
	return Workload{}, false
}

// Known reports whether name is a stress function or a Phoronix
// application, without materialising either.
func Known(name string) bool {
	for _, d := range stressDefs {
		if d.name == name {
			return true
		}
	}
	for _, d := range phoronixDefs {
		if d.name == name {
			return true
		}
	}
	return false
}

func cloverleaf() Workload {
	// Hydrodynamics: periodic iterations — a long fully parallel burst,
	// then a shorter lighter reduction/IO step. 17 iterations of 30 s plus
	// a 6 s ramp-down tail = 516 s.
	script := Repeat(17,
		Phase{Duration: 20 * time.Second, Threads: 6, Intensity: 1.0, Util: 1.0},
		Phase{Duration: 10 * time.Second, Threads: 6, Intensity: 0.82, Util: 1.0},
	)
	script = append(script, Phase{Duration: 6 * time.Second, Threads: 2, Intensity: 0.7, Util: 0.8})
	return Workload{
		Name:        "cloverleaf",
		Description: "Hydrodynamics benchmark (Table IV)",
		Kind:        App,
		Cost: map[string]units.Watts{
			MachineSmallIntel: 5.85,
			MachineDahu:       1.5,
		},
		Mix:    CounterMix{IPC: 2.1, CacheRefsPerKiloInstr: 6.0, BranchesPerKiloInstr: 60},
		Script: script,
	}
}

func dacapo() Workload {
	// Java benchmark suite: bursty medium-parallelism runs separated by
	// garbage-collection / harness troughs. 28 cycles of 13 s = 364 s.
	script := Repeat(28,
		Phase{Duration: 8 * time.Second, Threads: 2, Intensity: 1.0, Util: 0.8},
		Phase{Duration: 3 * time.Second, Threads: 1, Intensity: 0.8, Util: 0.4},
		Phase{Duration: 2 * time.Second, Threads: 3, Intensity: 0.85, Util: 0.8},
	)
	return Workload{
		Name:        "dacapo",
		Description: "Java benchmark (Table IV)",
		Kind:        App,
		Cost: map[string]units.Watts{
			MachineSmallIntel: 5.2,
			MachineDahu:       1.4,
		},
		Mix:    CounterMix{IPC: 1.3, CacheRefsPerKiloInstr: 4.0, BranchesPerKiloInstr: 200},
		Script: script,
	}
}

func build2() Workload {
	// Toolchain compilation: long fully parallel compile phases separated
	// by short serial configure/link steps. 6 cycles of 64 s = 384 s.
	script := Repeat(6,
		Phase{Duration: 54 * time.Second, Threads: 6, Intensity: 1.0, Util: 1.0},
		Phase{Duration: 10 * time.Second, Threads: 1, Intensity: 0.9, Util: 0.9},
	)
	return Workload{
		Name:        "build2",
		Description: "Compilation of the build2 toolchain (Table IV)",
		Kind:        App,
		Cost: map[string]units.Watts{
			MachineSmallIntel: 6.3,
			MachineDahu:       1.55,
		},
		Mix:    CounterMix{IPC: 1.0, CacheRefsPerKiloInstr: 5.0, BranchesPerKiloInstr: 220},
		Script: script,
	}
}

func compress7zip() Workload {
	// 7zip compression/decompression: fully parallel compression passes
	// alternating with lighter decompression. 9 cycles of 44 s = 396 s.
	script := Repeat(9,
		Phase{Duration: 24 * time.Second, Threads: 6, Intensity: 0.95, Util: 1.0},
		Phase{Duration: 20 * time.Second, Threads: 3, Intensity: 0.85, Util: 0.95},
	)
	return Workload{
		Name:        "compress-7zip",
		Description: "7zip compression and decompression (Table IV)",
		Kind:        App,
		Cost: map[string]units.Watts{
			MachineSmallIntel: 5.4,
			MachineDahu:       1.4,
		},
		Mix:    CounterMix{IPC: 1.7, CacheRefsPerKiloInstr: 3.0, BranchesPerKiloInstr: 150},
		Script: script,
	}
}
