package experiments

// Extension experiments beyond the paper's figures, covering its future-work
// directions (Section 7): multi-core shared-LLC evaluation (item 4), a
// high-associativity sweep (item 6), systematic search over the RRIP
// transition space (items 3 and 5), and the predictor-guided bypass
// combination (item 1).

import (
	"fmt"
	"strings"

	"gippr/internal/cache"
	"gippr/internal/multicore"
	"gippr/internal/parallel"
	"gippr/internal/policy"
	"gippr/internal/stats"
	"gippr/internal/trace"
	"gippr/internal/workload"
	"gippr/internal/xrand"
)

// MulticoreMixes are the 4-core multi-programmed mixes evaluated by the
// multi-core extension: all-intensive, half-intensive, pointer-heavy and
// mostly-friendly.
var MulticoreMixes = map[string][4]string{
	"intensive": {"cactusADM_like", "libquantum_like", "bwaves_like", "lbm_like"},
	"half":      {"cactusADM_like", "lbm_like", "gcc_like", "gobmk_like"},
	"pointer":   {"mcf_like", "omnetpp_like", "astar_like", "xalancbmk_like"},
	"friendly":  {"namd_like", "gobmk_like", "povray_like", "perlbench_like"},
}

// Multicore runs each mix under LRU, DRRIP, PDP and WI-4-DGIPPR on the
// shared LLC and returns system throughput normalized to LRU (higher is
// better). Expected shape: the adaptive policies cluster above LRU on the
// intensive mixes and stay at 1.0 on the friendly mix.
func Multicore(l *Lab) *Table {
	refs := l.Scale.PhaseRecords / 2
	specs := []struct {
		label string
		mk    func() cache.Policy
	}{
		{"LRU", func() cache.Policy { return policy.NewTrueLRU(l.Cfg.Sets(), l.Cfg.Ways) }},
		{"DRRIP", func() cache.Policy { return policy.NewDRRIP(l.Cfg.Sets(), l.Cfg.Ways) }},
		{"PDP", func() cache.Policy { return policy.NewPDP(l.Cfg.Sets(), l.Cfg.Ways) }},
		{"PIPP-dyn", func() cache.Policy { return policy.NewPIPPDyn(l.Cfg.Sets(), l.Cfg.Ways, 4) }},
		{"WI-4-DGIPPR", func() cache.Policy { return policy.NewDGIPPR4(l.Cfg.Sets(), l.Cfg.Ways, WIVectors4()) }},
	}
	t := &Table{Title: fmt.Sprintf("Multi-core extension: 4-core system throughput normalized to LRU (%d refs/core)", refs)}
	for _, s := range specs[1:] {
		t.Columns = append(t.Columns, s.label)
	}
	mixNames := []string{"intensive", "half", "pointer", "friendly"}
	throughput := func(mix [4]string, mk func() cache.Policy) float64 {
		var srcs []trace.Source
		for i, wname := range mix {
			w, err := workload.ByName(wname)
			if err != nil {
				panic(err)
			}
			srcs = append(srcs, w.Phases[0].Source(xrand.Mix(uint64(i), 0x3c)))
		}
		sys := multicore.New(mk(), srcs)
		sys.Run(refs)
		return sys.Results().Throughput
	}
	// Every (mix, policy) run is an independent deterministic simulation
	// (fresh policy, per-core seeded sources), so the whole matrix fans out.
	vals := make([][]float64, len(mixNames))
	for i := range vals {
		vals[i] = make([]float64, len(specs))
	}
	parallel.For(l.Workers, len(mixNames)*len(specs), func(idx int) {
		mi, si := idx/len(specs), idx%len(specs)
		vals[mi][si] = throughput(MulticoreMixes[mixNames[mi]], specs[si].mk)
	})
	for mi, mixName := range mixNames {
		row := TableRow{Name: mixName}
		for si := range specs[1:] {
			row.Values = append(row.Values, vals[mi][si+1]/vals[mi][0])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AssocSweep evaluates GIPPR against LRU and DRRIP at 8-, 16-, 32- and
// 64-way associativity (cache size fixed at 4 MB), the paper's future-work
// item 6. Values are MPKI normalized to same-geometry LRU, geomeaned over
// the policy-sensitive workloads. GIPPR's storage advantage grows with
// associativity (k-1 bits per set versus k*log2(k) for LRU), so holding its
// miss advantage at high k is the interesting result.
func AssocSweep(l *Lab) *Table {
	t := &Table{
		Title:   "Associativity sweep: MPKI normalized to same-geometry LRU (4 MB LLC)",
		Columns: []string{"PLRU", "GIPPR", "DRRIP"},
	}
	sensitive := []string{"cactusADM_like", "libquantum_like", "sphinx3_like", "lbm_like", "mcf_like", "omnetpp_like"}
	sensWs := make([]workload.Workload, len(sensitive))
	for i, name := range sensitive {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		sensWs[i] = w
	}
	l.prefetchStreams(sensWs)
	allWays := []int{8, 16, 32, 64}
	// One cell per (geometry, policy column); each cell replays its six
	// workloads serially and writes only its own table slot.
	cells := make([][]float64, len(allWays))
	for i := range cells {
		cells[i] = make([]float64, len(t.Columns))
	}
	parallel.For(l.Workers, len(allWays)*len(t.Columns), func(idx int) {
		wi, ci := idx/len(t.Columns), idx%len(t.Columns)
		ways := allWays[wi]
		col := t.Columns[ci]
		cfg := cache.Config{
			Name: fmt.Sprintf("L3/%dw", ways), SizeBytes: l.Cfg.SizeBytes,
			Ways: ways, BlockBytes: l.Cfg.BlockBytes, HitLatency: l.Cfg.HitLatency,
		}
		sets := cfg.Sets()
		mk := map[string]func() cache.Policy{
			"LRU":   func() cache.Policy { return policy.NewTrueLRU(sets, ways) },
			"PLRU":  func() cache.Policy { return policy.NewPLRU(sets, ways) },
			"GIPPR": func() cache.Policy { return policy.NewGIPPR(sets, ways, WIVector1().ScaleTo(ways)) },
			"DRRIP": func() cache.Policy { return policy.NewDRRIP(sets, ways) },
		}
		var ratios []float64
		for _, w := range sensWs {
			var polMisses, lruMisses uint64 = 0, 0
			for _, st := range l.Streams(w) {
				warm := l.warm(len(st.Records))
				polMisses += cache.ReplayStream(st.Records, cfg, mk[col](), warm).Misses
				lruMisses += cache.ReplayStream(st.Records, cfg, mk["LRU"](), warm).Misses
			}
			if lruMisses > 0 {
				ratios = append(ratios, float64(polMisses)/float64(lruMisses))
			}
		}
		cells[wi][ci] = stats.GeoMean(ratios)
	})
	for wi, ways := range allWays {
		t.Rows = append(t.Rows, TableRow{Name: fmt.Sprintf("%d-way", ways), Values: cells[wi]})
	}
	return t
}

// RRIPVResult is the outcome of the exhaustive RRIP-transition-vector
// search (future-work items 3 and 5: systematic search, applied to RRIP).
type RRIPVResult struct {
	Best        policy.RRIPVector
	BestFitness float64
	// HPFitness and FPFitness are the fitnesses of the two published RRIP
	// promotion rules under the same evaluation.
	HPFitness float64
	FPFitness float64
	Evaluated int
}

// RRIPVSearch exhaustively evaluates all 4^5 = 1024 RRIP transition vectors
// with the GA fitness function on shortened streams. Unlike the IPV space
// (16^17 points, needing a genetic algorithm), this space admits the
// systematic search the paper calls for.
func RRIPVSearch(l *Lab) RRIPVResult {
	// Evaluate on four policy-sensitive workloads at full evaluation
	// length. Replacement-policy differences only materialize once sets
	// fill and evict repeatedly (>= ~100 accesses per set), so unlike the
	// 17-entry IPV search — whose GA tolerates shortened fitness streams —
	// this exhaustive pass trades workload breadth for stream depth.
	sensitive := []string{"cactusADM_like", "dealII_like", "sphinx3_like", "mcf_like"}
	var streams [][]trace.Record
	var warms []int
	sensWs := make([]workload.Workload, len(sensitive))
	for i, name := range sensitive {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		sensWs[i] = w
	}
	l.prefetchStreams(sensWs)
	for _, w := range sensWs {
		for _, s := range l.Streams(w) {
			recs := s.Records
			if max := l.Scale.PhaseRecords / 2; len(recs) > max {
				recs = recs[:max]
			}
			if len(recs) == 0 {
				continue
			}
			streams = append(streams, recs)
			warms = append(warms, l.warm(len(recs)))
		}
	}
	fitness := func(v policy.RRIPVector) float64 {
		var miss, acc uint64
		for i, recs := range streams {
			rs := cache.ReplayStream(recs, l.Cfg, policy.NewRRIPV(l.Cfg.Sets(), l.Cfg.Ways, v), warms[i])
			miss += rs.Misses
			acc += rs.Accesses
		}
		if acc == 0 {
			return 0
		}
		return 1 - float64(miss)/float64(acc) // hit rate as the score
	}
	// The 1024-point space is scored in parallel; the argmax scan below
	// walks the same enumeration order as the old nested loops (strict >, so
	// ties resolve to the lowest index), keeping the result bit-identical
	// for any worker count.
	const nVec = 4 * 4 * 4 * 4 * 4
	decode := func(i int) policy.RRIPVector {
		return policy.RRIPVector{
			Promote: [4]uint8{uint8(i >> 6 & 3), uint8(i >> 4 & 3), uint8(i >> 2 & 3), uint8(i & 3)},
			Insert:  uint8(i >> 8 & 3),
		}
	}
	fits := make([]float64, nVec)
	parallel.For(l.Workers, nVec, func(i int) { fits[i] = fitness(decode(i)) })
	res := RRIPVResult{BestFitness: -1}
	for p0 := 0; p0 < 4; p0++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := 0; p2 < 4; p2++ {
				for p3 := 0; p3 < 4; p3++ {
					for ins := 0; ins < 4; ins++ {
						i := ins<<8 | p0<<6 | p1<<4 | p2<<2 | p3
						res.Evaluated++
						if fits[i] > res.BestFitness {
							res.BestFitness, res.Best = fits[i], decode(i)
						}
					}
				}
			}
		}
	}
	res.HPFitness = fitness(policy.SRRIPHPVector)
	res.FPFitness = fitness(policy.SRRIPFPVector)
	return res
}

// Format renders the RRIPV search outcome.
func (r RRIPVResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Exhaustive RRIP transition-vector search (future work items 3 and 5)\n")
	fmt.Fprintf(&sb, "evaluated %d vectors\n", r.Evaluated)
	fmt.Fprintf(&sb, "best:      promote=%v insert=%d  hit rate %.6f\n", r.Best.Promote, r.Best.Insert, r.BestFitness)
	fmt.Fprintf(&sb, "SRRIP-HP:  promote=%v insert=%d  hit rate %.6f\n", policy.SRRIPHPVector.Promote, policy.SRRIPHPVector.Insert, r.HPFitness)
	fmt.Fprintf(&sb, "SRRIP-FP:  promote=%v insert=%d  hit rate %.6f\n", policy.SRRIPFPVector.Promote, policy.SRRIPFPVector.Insert, r.FPFitness)
	return sb.String()
}

// Bypass compares GIPPR with the predictor-guided bypass combination
// (future-work item 1) on the streaming-heavy workloads, as MPKI normalized
// to LRU.
func Bypass(l *Lab) *Table {
	t := &Table{Title: "GIPPR + bypass predictor extension: MPKI normalized to LRU"}
	specs := []Spec{SpecWIGIPPR, SpecGIPPRBypass, SpecWI4DGIPPR}
	for _, s := range specs {
		t.Columns = append(t.Columns, s.Label)
	}
	for _, w := range l.Suite() {
		row := TableRow{Name: w.Name}
		for _, s := range specs {
			row.Values = append(row.Values, l.NormalizedMPKI(s, SpecLRU, w))
		}
		t.Rows = append(t.Rows, row)
	}
	t.SortByColumn("GIPPR+bypass")
	return t
}
