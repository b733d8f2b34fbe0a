// Package experiments reproduces every figure in the paper's evaluation
// (Figures 1, 4, 10, 11, 12, 13, plus the Section 3.6 overhead comparison
// and the Section 5.3 learned vectors). Each figure has a runner returning a
// structured result and an ASCII rendering; cmd/gippr-report regenerates all
// of them, and bench_test.go exposes one benchmark per figure.
//
// All experiments work on LLC-filtered access streams: each workload phase
// is pushed once through the fixed L1/L2 hierarchy (whose behaviour is
// independent of the LLC policy) and the captured LLC stream is replayed
// into an LLC-only model per policy — the paper's own trace methodology
// (Section 4.3). Streams and per-(workload, policy) results are memoized
// within a Lab, and a Lab with a stream directory (SetStreamDir) keeps its
// captured streams on disk for the Labs after it.
package experiments

import (
	"fmt"
	"os"
)

// Scale sizes an experiment run. The paper's full scale (1.5B instructions
// per SimPoint, 15,000 random IPVs, day-long GA runs on 96 processors) is
// out of reach for a single-core reproduction; these presets keep the same
// structure at tractable sizes.
type Scale struct {
	Name string
	// PhaseRecords is the number of memory references generated per
	// workload phase before L1/L2 filtering.
	PhaseRecords int
	// WarmFrac is the fraction of each LLC stream used for cache warm-up
	// (the paper warms 500M of 1.5B instructions = 1/3).
	WarmFrac float64
	// RandomIPVs is the Figure 1 sample count (paper: 15,000).
	RandomIPVs int
	// EvolveRecords is the per-phase record count used for GA fitness
	// streams (smaller than PhaseRecords, as the paper's fitness model is
	// deliberately cheaper than its evaluation model).
	EvolveRecords int
	// GAPopulation/GAGenerations size Evolve runs at this scale.
	GAPopulation  int
	GAGenerations int
}

// Presets, selectable via GIPPR_SCALE.
var (
	Smoke = Scale{
		Name: "smoke", PhaseRecords: 60_000, WarmFrac: 1.0 / 3,
		RandomIPVs: 40, EvolveRecords: 20_000, GAPopulation: 8, GAGenerations: 3,
	}
	Default = Scale{
		Name: "default", PhaseRecords: 600_000, WarmFrac: 1.0 / 3,
		RandomIPVs: 400, EvolveRecords: 150_000, GAPopulation: 24, GAGenerations: 10,
	}
	Full = Scale{
		Name: "full", PhaseRecords: 4_000_000, WarmFrac: 1.0 / 3,
		RandomIPVs: 15_000, EvolveRecords: 600_000, GAPopulation: 64, GAGenerations: 25,
	}
)

// CustomScale returns a scale with explicit per-phase record count and
// warm-up fraction — the shape the gippr-sim CLI's -records/-warm flags and
// the job daemon's configuration need. The search-related knobs (random IPV
// count, GA sizing, evolve-stream truncation) inherit Default's structure,
// with the evolve streams scaled by Default's evolve/evaluate ratio.
func CustomScale(records int, warmFrac float64) Scale {
	s := Default
	s.Name = "custom"
	s.PhaseRecords = records
	s.WarmFrac = warmFrac
	s.EvolveRecords = records * Default.EvolveRecords / Default.PhaseRecords
	return s
}

// Validate checks the two knobs gippr-sim and gippr-serve set from their
// -records and -warm flags, and names the flag in its error: at least one
// record per phase, and a warm-up fraction in [0, 1), so that some of every
// stream is measured.
func (s Scale) Validate() error {
	if s.PhaseRecords < 1 {
		return fmt.Errorf("-records %d: a phase needs at least one memory reference", s.PhaseRecords)
	}
	if !(s.WarmFrac >= 0 && s.WarmFrac < 1) {
		return fmt.Errorf("-warm %v: the warm-up fraction must be in [0, 1)", s.WarmFrac)
	}
	return nil
}

// ParseScale maps a -scale flag value to its preset ("smoke", "default" or
// "full"). The empty string defers to the GIPPR_SCALE environment
// variable, and an unset or empty variable means Default. Any other name,
// in the flag or in the variable, is an error that names its source and
// lists the three presets: a mistyped "smoke" must not run at ten times
// the smoke cost.
func ParseScale(name string) (Scale, error) {
	src := "-scale"
	if name == "" {
		name, src = os.Getenv("GIPPR_SCALE"), "GIPPR_SCALE"
		if name == "" {
			return Default, nil
		}
	}
	if s, ok := preset(name); ok {
		return s, nil
	}
	return Scale{}, fmt.Errorf("%s: unknown scale %q: want smoke, default or full", src, name)
}

// ScaleFromEnv returns the preset selected by the GIPPR_SCALE environment
// variable ("smoke", "default" or "full"), defaulting to Default for any
// other value. Tests and benchmarks use it; the tools call ParseScale,
// which refuses an unknown value.
func ScaleFromEnv() Scale {
	if s, ok := preset(os.Getenv("GIPPR_SCALE")); ok {
		return s
	}
	return Default
}

// preset returns the named preset.
func preset(name string) (Scale, bool) {
	switch name {
	case "smoke":
		return Smoke, true
	case "default":
		return Default, true
	case "full":
		return Full, true
	}
	return Scale{}, false
}
