package experiments

import (
	"fmt"
	"strings"

	"gippr/internal/reusedist"
	"gippr/internal/stats"
)

// Characterization is the per-workload "Table 1" every cache paper carries:
// footprint, memory intensity and the LLC-stream reuse-distance profile
// that determines which replacement policies can help.
type Characterization struct {
	Workload   string
	LLCRecords int
	Footprint  int     // distinct 64-byte blocks in the LLC stream
	RefsPerKI  float64 // LLC accesses per kilo-instruction
	WriteFrac  float64
	ColdFrac   float64 // first-touch fraction of LLC accesses
	MeanRD     float64 // mean finite reuse distance (blocks)
	P50RD      int64
	P90RD      int64
	LRUFAHit   float64 // hit rate of a fully-associative LRU at LLC capacity
	LRUMPKI    float64 // measured set-associative LRU MPKI
}

// Characterize profiles every workload's LLC stream. The fully-associative
// LRU hit rate at LLC capacity (from the reuse-distance histogram) is the
// upper bound a recency-based policy can reach; comparing it with the
// measured set-associative LRU MPKI separates conflict effects from
// capacity effects.
func Characterize(l *Lab) []Characterization {
	l.prefetch([]Spec{SpecLRU}, false)
	llcBlocks := int64(l.Cfg.SizeBytes / l.Cfg.BlockBytes)
	out := make([]Characterization, 0, len(l.Suite()))
	for _, w := range l.Suite() {
		c := Characterization{Workload: w.Name}
		var instrs, writes uint64
		blocks := map[uint64]struct{}{}
		var hists []*reusedist.Histogram
		for _, st := range l.Streams(w) {
			c.LLCRecords += len(st.Records)
			p := reusedist.New(len(st.Records) + 1)
			for _, r := range st.Records {
				instrs += uint64(r.Gap)
				if r.Write {
					writes++
				}
				blocks[r.Addr>>6] = struct{}{}
				p.Access(r.Addr >> 6)
			}
			hists = append(hists, p.Histogram())
		}
		c.Footprint = len(blocks)
		if instrs > 0 {
			c.RefsPerKI = 1000 * float64(c.LLCRecords) / float64(instrs)
		}
		if c.LLCRecords > 0 {
			c.WriteFrac = float64(writes) / float64(c.LLCRecords)
		}
		// Merge the per-phase histograms (weighted by phase size is
		// implicit: Add-ed counts accumulate).
		var total, cold uint64
		var meanNum, meanDen float64
		var p50s, p90s, has []float64
		for _, h := range hists {
			total += h.Total
			cold += h.Cold
			meanNum += h.MeanFinite() * float64(h.Total-h.Cold)
			meanDen += float64(h.Total - h.Cold)
			p50s = append(p50s, float64(h.Percentile(0.5)))
			p90s = append(p90s, float64(h.Percentile(0.9)))
			has = append(has, h.HitRateAt(llcBlocks))
		}
		if total > 0 {
			c.ColdFrac = float64(cold) / float64(total)
		}
		if meanDen > 0 {
			c.MeanRD = meanNum / meanDen
		}
		if len(p50s) > 0 {
			c.P50RD = int64(stats.Mean(p50s))
			c.P90RD = int64(stats.Mean(p90s))
			c.LRUFAHit = stats.Mean(has)
		}
		c.LRUMPKI = l.MPKI(SpecLRU, w)
		out = append(out, c)
	}
	return out
}

// FormatCharacterization renders the characterization table.
func FormatCharacterization(cs []Characterization) string {
	var sb strings.Builder
	sb.WriteString("Workload characterization (LLC-filtered streams)\n")
	fmt.Fprintf(&sb, "%-18s %9s %9s %7s %6s %6s %9s %9s %9s %7s %9s\n",
		"workload", "llc refs", "blocks", "refs/KI", "wr%", "cold%", "meanRD", "p50RD", "p90RD", "faHit%", "LRU MPKI")
	for _, c := range cs {
		fmt.Fprintf(&sb, "%-18s %9d %9d %7.1f %6.1f %6.1f %9.0f %9d %9d %7.1f %9.2f\n",
			c.Workload, c.LLCRecords, c.Footprint, c.RefsPerKI,
			100*c.WriteFrac, 100*c.ColdFrac, c.MeanRD, c.P50RD, c.P90RD,
			100*c.LRUFAHit, c.LRUMPKI)
	}
	return sb.String()
}
