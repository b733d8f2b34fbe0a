package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the arithmetic the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2, 10, 4}, 1.5, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}, {4500, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarise([]float64{1, 2, 3}, "ms")
	if s.N != 3 || s.P50 != 2 || s.TailPct != 0 {
		t.Errorf("summarise of 3 samples = %+v, want no tail", s)
	}
}

func TestLateness(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name            string
		due, free, sent time.Duration
		want            time.Duration
	}{
		{"idle connection, sent on time", 10 * ms, 2 * ms, 10 * ms, 0},
		{"idle connection, sent late", 10 * ms, 2 * ms, 13 * ms, 3 * ms},
		{"busy past due, sent when free", 10 * ms, 15 * ms, 15 * ms, 0},
		{"busy past due, then slow to send", 10 * ms, 15 * ms, 16 * ms, ms},
		{"sent early", 10 * ms, 2 * ms, 9 * ms, 0},
	} {
		if got := lateness(c.due, c.free, c.sent); got != c.want {
			t.Errorf("%s: lateness = %v, want %v", c.name, got, c.want)
		}
	}
	if got := dueAt(300, 300); got != time.Second {
		t.Errorf("dueAt(300, 300/s) = %v, want 1s", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same runs", base, base, false, verdictUnchanged},
		{"within the bound", base, shift(base, 1.05), false, verdictUnchanged},
		{"slower beyond the bound", base, shift(base, 1.2), false, verdictWorse},
		{"faster everywhere", base, shift(base, 0.8), false, verdictBetter},
		{"higher is better", base, shift(base, 1.2), true, verdictBetter},
		{"noisy", []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 110, 100}, false, verdictUnresolved},
		{"noisy but dominated", []float64{50, 150, 80, 120, 100}, []float64{10, 30, 16, 24, 20}, false, verdictBetter},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// Every copy of the reference kernel does the same work every time, so
// its time measures only the host.
func TestReferenceKernel(t *testing.T) {
	k := newRefKernel(2)
	var hits []int
	for _, c := range append(k.caches, k.caches[0]) {
		c.reset()
		hits = append(hits, c.replay(k.stream))
	}
	if hits[0] != hits[1] || hits[0] != hits[2] || hits[0] <= 0 || hits[0] >= refRecords {
		t.Errorf("replays hit %v times out of %d", hits, refRecords)
	}
	if d := k.time(); d <= 0 {
		t.Errorf("kernel took %v", d)
	}
}

// A time taken at the nominal kernel time stands; one taken while the
// kernel ran twice as long shrinks by 2^refExponent.
func TestAdjust(t *testing.T) {
	d := 800 * time.Millisecond
	if got := adjust(d, refNominal); got != d {
		t.Errorf("adjust at the nominal kernel time = %v, want %v", got, d)
	}
	want := float64(d) / math.Pow(2, refExponent)
	if got := adjust(d, 2*refNominal); math.Abs(float64(got)-want) > 1 {
		t.Errorf("adjust at twice the nominal kernel time = %v, want %v", got, time.Duration(want))
	}
}

// calibrate returns the mean of each timing and the one before it.
func TestCalibrate(t *testing.T) {
	r := &run{}
	first := r.calibrate()
	second := r.calibrate()
	if ms(first) != r.refs[0] || math.Abs(ms(second)-(r.refs[0]+r.refs[1])/2) > 1e-6 {
		t.Errorf("calibrate returned %v, %v for timings %v ms", first, second, r.refs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: spanRoot, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "c", Start: 65, End: 80}, // overruns its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 30, 4: 5, 5: 15} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	layers, cov := layerSelf(spans)
	if layers["a"] != 25 || layers["c"] != 15 {
		t.Errorf("layer self = %v", layers)
	}
	if !near(cov, 0.7) { // (20+30+5+15)/100
		t.Errorf("coverage = %v, want 0.7", cov)
	}
}
