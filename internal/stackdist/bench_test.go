package stackdist

import (
	"testing"

	"gippr/internal/cache"
	"gippr/internal/policy"
	"gippr/internal/trace"
)

// benchLattice is the issue's 16-geometry lattice: two set counts crossed
// with associativities 1..8.
var benchLattice = Options{
	BlockBytes: 64, MinSets: 64, MaxSets: 128, MaxWays: 8,
}

func benchStream(b *testing.B) []trace.Record {
	b.Helper()
	stream := synthStream(200_000, 0xbead)
	benchLattice.Warm = len(stream) / 3
	return stream
}

// BenchmarkOnePassLattice scores the whole 16-point lattice in one stream
// walk. Compare with BenchmarkPerPointSweep: the acceptance bar is >= 5x
// fewer ns/op here.
func BenchmarkOnePassLattice(b *testing.B) {
	stream := benchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(stream, benchLattice); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, len(stream))
}

// BenchmarkPerPointSweep is the pre-one-pass baseline: a full
// cache.ReplayStream per lattice point. It only replays the 14 points with
// ways >= 2 (policy.NewTrueLRU cannot express direct-mapped caches), a
// handicap in the baseline's favor — the one-pass engine covers all 16 and
// must still win by >= 5x.
func BenchmarkPerPointSweep(b *testing.B) {
	stream := benchStream(b)
	pts := benchLattice.Lattice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pts {
			if p.Ways < 2 {
				continue
			}
			cache.ReplayStream(stream, lruConfig(p.Sets, p.Ways, benchLattice.BlockBytes),
				policy.NewTrueLRU(p.Sets, p.Ways), benchLattice.Warm)
		}
	}
	reportPerRecord(b, len(stream))
}

// reportPerRecord reports the timed region's cost per stream record.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}
