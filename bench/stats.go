package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the acceptance arithmetic. With
// fewer than two values both quartiles are that value (NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// relSpread is the distance between the quartiles as a share of the
// median: the run-to-run spread the bounds are judged against.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentiles are the candidates for a timing's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile with at least ten samples
// beyond it among tailPercentiles, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// timing summarises one series of durations for the result file: the
// sample count, the median, and the highest percentile with ten samples
// beyond it; a series too short for one keeps its samples instead.
type timing struct {
	N       int       `json:"n"`
	P50     float64   `json:"p50"`
	TailPct float64   `json:"tail_pct,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	Unit    string    `json:"unit"`
}

func summarise(xs []float64, unit string) timing {
	t := timing{N: len(xs), P50: median(xs), Unit: unit}
	if p := tailPercentile(len(xs)); p > 0 {
		t.TailPct = p
		t.Tail = quantile(xs, p/100)
	} else {
		t.Samples = xs
	}
	return t
}

// lateness is how long after it could have been sent a request actually
// left the load generator: the send time minus the later of its due time
// and the moment its connection became free. Time spent waiting for a busy
// connection is the system's backlog, counted in the request's latency,
// not the generator's lateness.
func lateness(due, free, sent time.Duration) time.Duration {
	ready := due
	if free > ready {
		ready = free
	}
	if sent < ready {
		return 0
	}
	return sent - ready
}

// dueAt is the scheduled send offset of the i-th request of an open loop
// at the given rate per second.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// Verdicts of comparing one (metric, workload) across two sets of runs.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares run set b against base set a for one metric. higher
// says whether larger values are better; bound is the share of a's median
// by which b may worsen before it counts as a regression.
//
// The rules: b is better when it wins at least nine tenths of the pairs
// (runs paired in order, ties counting for neither) and the medians differ
// by more than a's own quartile spread. Otherwise, when either side's
// spread exceeds the bound the result is unresolved, unless every run of
// one side beats every run of the other. Otherwise b is worse when its
// median is worse than a's by more than the bound, and unchanged if not.
func verdict(a, b []float64, higher bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	better := func(x, y float64) bool { // x reads better than y
		if higher {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	if float64(wins) >= 0.9*float64(n) && better(mb, ma) && math.Abs(mb-ma) > q3-q1 {
		return verdictBetter
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		switch {
		case dominates(b, a, better):
			return verdictBetter
		case dominates(a, b, better):
			return verdictWorse
		}
		return verdictUnresolved
	}
	if better(ma, mb) && math.Abs(mb-ma) > bound*math.Abs(ma) {
		return verdictWorse
	}
	return verdictUnchanged
}

// dominates reports whether every value of x reads better than every
// value of y.
func dominates(x, y []float64, better func(a, b float64) bool) bool {
	for _, xv := range x {
		for _, yv := range y {
			if !better(xv, yv) {
				return false
			}
		}
	}
	return true
}
