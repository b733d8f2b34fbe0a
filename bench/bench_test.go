package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func testCatalogue(t *testing.T) catalogue {
	t.Helper()
	cat, err := loadCatalogue(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCatalogue holds BENCHMARK.json to the limits its readers enforce,
// and to the workloads this program runs.
func TestCatalogue(t *testing.T) {
	cat := testCatalogue(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(cat.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(cat.Workloads), len(workloadNames))
	}
	for _, w := range cat.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	widest := 0.0
	for _, d := range cat.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: bad unit or direction", d.Name)
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		widest = max(widest, *d.Bound)
	}
	// Set-up time is judged against the parent's but not for its spread,
	// so it carries the widest bound.
	if s := cat.endToEnd("setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" || s.Bound == nil || *s.Bound != widest {
		t.Error("setup_s must be an end-to-end metric in s, lower better, with the widest bound")
	}
	if cat.endToEnd(jobMetric) == nil {
		t.Errorf("%s must be an end-to-end metric", jobMetric)
	}
	for _, d := range cat.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != nil {
			t.Errorf("per-layer metric %s: bad unit, or a bound", d.Name)
		}
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", cat.RunSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, for about a second
// at 4000 references per phase against a freshly built daemon, and checks
// that each run reports every metric BENCHMARK.json names and no failure.
// The reference kernel is not run: every timing of it reads refNominal.
func TestSmoke(t *testing.T) {
	cat := testCatalogue(t)
	defer func(f func() time.Duration) { timeKernel = f }(timeKernel)
	timeKernel = func() time.Duration { return refNominal }
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, trace := range []string{"0", "1"} {
		for _, wl := range workloadNames {
			var stdout, stderr bytes.Buffer
			args := []string{"--root", "..", "--workload", wl, "--seed", "3", "--seconds", "1",
				"--records", "4000", "--trace", trace, "--out", out}
			if code := benchMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", wl, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", wl, trace, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s",
					wl, trace, s.Correct, s.Failed, s.Attempted, stderr.String())
			}
			defs := cat.EndToEnd
			if trace == "1" {
				defs = cat.PerLayer
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", wl, trace, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := s.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or in the wrong unit", wl, trace, d.Name)
				}
			}
		}
	}
	// The records just written compare cleanly against themselves.
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"compare", "-root", "..", out, out}, &stdout, &stderr); code != 0 {
		t.Fatalf("compare: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), jobMetric) || strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("compare output:\n%s", stdout.String())
	}
}
