package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"gippr/internal/policy"
	"gippr/internal/workload"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"cold_grid", "warm_ipv", "store_hits", "sweep_explain"}

var workloadFuncs = map[string]func(*run) error{
	"cold_grid":     coldGrid,
	"warm_ipv":      warmIPV,
	"store_hits":    storeHits,
	"sweep_explain": sweepExplain,
}

// suiteSize is the number of workloads a request without a list covers.
var suiteSize = len(workload.Names())

// setUpReps is how many times a run sets up, for a median set-up time.
func (r *run) setUpReps() int {
	if r.traced {
		return 1
	}
	return 3
}

// Timed phases do a fixed amount of work, sized from --seconds at about
// the rate the baseline machine sustains when quiet, so a phase takes
// about --seconds there. A deadline would make the work, and with it the
// daemon's footprint and the run's sample count, follow the host's speed.
// So that a run's length stays bounded on a much slower host, a phase
// stops early once phaseCap times --seconds have passed.
const (
	coldRestartsPerSecond = 0.6
	warmIPVsPerSecond     = 1.5
	phaseCap              = 2
)

// count is a timed phase's job count at perSecond, at least one.
func (r *run) count(perSecond float64) int {
	return max(1, int(math.Round(r.seconds.Seconds()*perSecond)))
}

// stopBy is the time after which a timed phase starting now stops early.
func (r *run) stopBy() time.Time {
	return time.Now().Add(time.Duration(phaseCap * float64(r.seconds)))
}

// coldGrid restarts the daemon in one run directory, and after each start
// posts the default-policy grid plus a fresh seeded IPV over the probe
// workloads, so nothing is warm but what the daemon keeps on disk. A job's
// latency runs from exec to the result received; set-up, from exec to the
// first /healthz 200. The reference kernel runs before the first start and
// after each exit. The probe set, not the whole suite, keeps a restart to
// a few seconds, so a run holds enough of them for a steady median.
func coldGrid(r *run) error {
	dir, err := r.newDir("daemon")
	if err != nil {
		return err
	}
	nextIPV := r.distinctIPVs(1)
	base := map[string]string{} // default-policy cells of the first restart
	var totalAlloc float64
	restarts, until := r.count(coldRestartsPerSecond), r.stopBy()
	r.calibrate()
	for i := 0; i < restarts && time.Now().Before(until); i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		d, err := startDaemon(r.ctx, r.bin, dir, r.records)
		if err != nil {
			return err
		}
		c := newClient(d.addr, 1)
		q := jobRequest{Workloads: probeWorkloads, IPV: nextIPV()}
		jr, jerr := r.runJob(c, q)
		mem, merr := c.memStats(r.ctx)
		rss, rerr := d.peakRSSMB()
		c.close()
		serr := d.stop()
		ref := r.calibrate()
		if err := errors.Join(merr, rerr); err != nil {
			return err
		}
		r.addSetup(d.ready, ref)
		if jerr == nil {
			if jerr = checkColdGrid(q, jr.Result, base); jerr != nil {
				r.fail(jerr)
			} else if serr != nil {
				r.fail(fmt.Errorf("restart %d: %w", i, serr))
			} else {
				lat := jr.Sent.Add(jr.Done).Sub(d.start)
				r.record("cold_job", lat, ref)
				r.observe(jr, jr.Sent.Sub(d.start.Add(d.ready)))
				jr.Done = lat
				r.keep(q, jr, restarts)
				r.timedJobs++
			}
		}
		totalAlloc += float64(mem.TotalAlloc) / (1 << 20)
		r.numGC += mem.NumGC
		r.memEnd = mem
		r.rssMB = max(r.rssMB, rss)
	}
	r.allocMB = totalAlloc
	r.jobP50 = median(r.series["cold_job"+adjSuffix])
	return nil
}

// checkColdGrid checks a cold grid's cell count and that its
// default-policy cells equal the first restart's byte for byte; the first
// restart fills base.
func checkColdGrid(q jobRequest, result []byte, base map[string]string) error {
	m, err := checkCount(q, result, suiteSize)
	if err != nil {
		return err
	}
	first := len(base) == 0
	n := 0
	for _, raw := range m.Cells {
		var c struct{ Workload, Policy string }
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		if c.Policy == ipvLabel {
			continue
		}
		var b bytes.Buffer
		if err := json.Compact(&b, raw); err != nil {
			return err
		}
		key := c.Workload + "|" + c.Policy
		n++
		if first {
			base[key] = b.String()
		} else if base[key] != b.String() {
			return fmt.Errorf("cell %s differs across restarts:\n first %s\n now   %s", key, base[key], b.String())
		}
	}
	if n != len(base) {
		return fmt.Errorf("restart carries %d default-policy cells, the first carried %d", n, len(base))
	}
	return nil
}

// warmStreams is the set-up job of warm_ipv and sweep_explain: the
// workload's warm-up request, which captures its streams.
func (r *run) warmStreams(c *client) error {
	q := warmupFor(r.workload)
	jr, err := r.runJob(c, q)
	if err != nil {
		return err
	}
	if _, err := checkCount(q, jr.Result, suiteSize); err != nil {
		r.fail(err)
		return err
	}
	return nil
}

// warmIPV is the IPV-search loop as a service: on warm streams, one
// closed-loop client posts fresh seeded IPVs over the whole suite, missing
// both the result store and the Lab memo.
func warmIPV(r *run) error {
	d, c, err := r.setUp(r.setUpReps(), 1, r.warmStreams)
	if err != nil {
		return err
	}
	return r.timed(d, c, func() {
		nextIPV := r.distinctIPVs(2)
		gen := func() jobRequest { return jobRequest{Exact: true, IPV: nextIPV()} }
		r.timedJobs = r.closedLoop(c, gen, r.count(warmIPVsPerSecond), r.stopBy(),
			func(q jobRequest, jr jobRun, ref time.Duration) error {
				if _, err := checkCount(q, jr.Result, suiteSize); err != nil {
					return err
				}
				r.record("job", jr.Done, ref)
				r.keep(q, jr, 3)
				return nil
			})
		r.jobP50 = median(r.series["job"+adjSuffix])
	})
}

// timed runs the timed phase against the set-up daemon, measures it, and
// stops it; a daemon that does not exit cleanly fails the run.
func (r *run) timed(d *daemon, c *client, phase func()) error {
	defer c.close()
	before, err := c.memStats(r.ctx)
	if err == nil {
		phase()
		err = r.measureDaemon(d, c, before)
	}
	if serr := d.stop(); serr != nil {
		r.fail(serr)
	}
	return err
}

// storeHitRate is store_hits' fixed open-loop rate, hitSlice the stretch of
// its schedule between two reference timings, and hitLimitMS its latency
// limit at the tail.
const (
	storeHitRate = 300.0
	hitSlice     = time.Second
	hitLimitMS   = 25.0
	lateLimitMS  = 5.0
)

// storeHits serves stored results only. Set-up populates seven entries
// over four workloads (a default grid, four seeded IPV grids, a sweep with
// a seeded tree-PLRU geometry and an explanation of a seeded pair); the
// timed phase re-requests them in a seeded order at a fixed open-loop
// rate. Every served result must equal the populated one byte for byte,
// id aside. The four workloads are the probe set for every seed, so entry
// sizes and the daemon's footprint do not vary with the seed.
func storeHits(r *run) error {
	w4 := probeWorkloads
	nextIPV := r.distinctIPVs(4)
	entries := []jobRequest{{Workloads: w4}}
	for i := 0; i < 4; i++ {
		entries = append(entries, jobRequest{Workloads: w4, IPV: nextIPV()})
	}
	sweep := &lattice{MinSets: 512, MaxSets: 4096, MaxWays: 32,
		PLRU: []geometry{{Sets: 256 << r.rng(3).IntN(6), Ways: 16}}}
	entries = append(entries,
		jobRequest{Workloads: w4, Sweep: sweep},
		jobRequest{Workloads: w4, Explain: explainPairs(r.rng(5))()})
	var golden [][]byte
	d, c, err := r.setUp(r.setUpReps(), 2, func(c *client) error {
		var got [][]byte
		for _, q := range entries {
			jr, err := r.runJob(c, q)
			if err != nil {
				return err
			}
			if _, err := checkCount(q, jr.Result, suiteSize); err != nil {
				r.fail(err)
				return err
			}
			r.keep(q, jr, 5)
			got = append(got, stripID(jr.Result, jr.ID))
		}
		for i := range golden {
			if !bytes.Equal(golden[i], got[i]) {
				err := fmt.Errorf("entry %d differs between two daemons populating it", i)
				r.fail(err)
				return err
			}
		}
		golden = got
		return nil
	})
	if err != nil {
		return err
	}
	check := func(q jobRequest, jr jobRun) error {
		k := entryOf(entries, q)
		if !bytes.Equal(stripID(jr.Result, jr.ID), golden[k]) {
			return fmt.Errorf("store hit on entry %d differs from the populated manifest", k)
		}
		return nil
	}
	return r.timed(d, c, func() {
		hitsBefore, err := storeHitCount(r, c)
		if err != nil {
			r.fail(err)
			return
		}
		// The schedule runs in one-second slices, with the reference kernel
		// timed before the first and after each, while no request is in
		// flight. The slice count is fixed, not the time they take: the
		// daemon keeps every job it served, so its footprint grows with the
		// number of jobs.
		perSlice := int(storeHitRate * hitSlice.Seconds())
		slices := max(1, int(r.seconds/hitSlice))
		r.calibrate()
		for k := 0; k < slices && r.ctx.Err() == nil; k++ {
			lats := r.openLoop(c, 2, storeHitRate, hitSlice,
				func(i int) jobRequest { return entries[hitPick(r.seed, k*perSlice+i, len(entries))] }, check)
			ref := r.calibrate()
			for _, l := range lats {
				r.record("hit_open", l, ref)
			}
			r.timedJobs += len(lats)
		}
		r.jobP50 = median(r.series["hit_open"+adjSuffix])
		hitsAfter, err := storeHitCount(r, c)
		if err != nil {
			r.fail(err)
			return
		}
		if served := hitsAfter - hitsBefore; served != uint64(r.timedJobs) {
			r.fail(fmt.Errorf("daemon counted %d store hits for %d served jobs", served, r.timedJobs))
		}
		p99 := quantile(r.series["hit_open"], 0.99)
		latep99 := quantile(r.late, 0.99)
		r.extra["hit_p99_ms"] = p99
		r.extra["hit_limit_ms"] = hitLimitMS
		r.extra["hit_limit_met"] = p99 <= hitLimitMS
		r.extra["loadgen_valid"] = latep99 <= lateLimitMS
		if latep99 > lateLimitMS {
			fmt.Fprintf(r.log, "bench: store_hits: load generator ran %.2f ms late at p99 (limit %.0f ms): this run is invalid, not slow\n",
				latep99, lateLimitMS)
		}
	})
}

// hitPick is the entry the i-th store_hits request asks for.
func hitPick(seed uint64, i, n int) int {
	return int(splitmix(seed^splitmix(uint64(i))) % uint64(n))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// entryOf finds which populated entry a request re-asks for.
func entryOf(entries []jobRequest, q jobRequest) int {
	for i := range entries {
		if entries[i].IPV == q.IPV && kindOf(entries[i]) == kindOf(q) {
			return i
		}
	}
	return -1
}

// stripID blanks a result's job id, the one field two servings of one
// stored result may differ in.
func stripID(result []byte, id string) []byte {
	for _, form := range []string{`"id": "%s"`, `"id":"%s"`} {
		old := []byte(fmt.Sprintf(form, id))
		if bytes.Contains(result, old) {
			return bytes.Replace(result, old, []byte(`"id": ""`), 1)
		}
	}
	return result
}

// storeHitCount reads the daemon's store-hit counter from /metrics.
func storeHitCount(r *run, c *client) (uint64, error) {
	b, err := c.get(r.ctx, "/metrics")
	if err != nil {
		return 0, err
	}
	var m struct {
		StoreHits uint64 `json:"store_hits"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.StoreHits, nil
}

// distinctLattices yields seeded sweep lattices that never repeat in a
// run: LRU at 1024..4096 sets and 1..16 ways, plus two tree-PLRU
// geometries, the LLC's own shape and a tiny cache (2 or 4 ways, 1 to 128
// sets) whose shape and place in the list are drawn in a seeded order.
// The tiny cache tells lattices apart without changing what a sweep costs
// or allocates, as varying the LRU range or the LLC-sized geometry would.
// sweep_explain uses 18 of the 32 combinations; past them, the ways bound
// drops by one and the draw starts over.
func (r *run) distinctLattices(stream uint64) func() jobRequest {
	rng := r.rng(stream)
	llc := geometry{Sets: 4096, Ways: 16}
	var queue []lattice
	ways := 17
	return func() jobRequest {
		if len(queue) == 0 {
			ways = max(ways-1, 1)
			for sets := 1; sets <= 128; sets *= 2 {
				for _, w := range []int{2, 4} {
					tiny := geometry{Sets: sets, Ways: w}
					for _, plru := range [][]geometry{{llc, tiny}, {tiny, llc}} {
						queue = append(queue, lattice{MinSets: 1024, MaxSets: 4096, MaxWays: ways, PLRU: plru})
					}
				}
			}
			rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		}
		l := queue[0]
		queue = queue[1:]
		return jobRequest{Workloads: probeWorkloads, Sweep: &l}
	}
}

// explainPairs yields policy pairs from the registry that do not repeat
// until all are used: along a seeded permutation, first each policy with
// its successor, then with the one after, and so on. The first
// len(policy.Names())-1 pairs are that chain, so each explanation in it
// but the first captures exactly one policy the daemon has not captured
// before, and together they capture every policy once.
func explainPairs(rng interface{ Perm(int) []int }) func() *pair {
	names := policy.Names()
	perm := rng.Perm(len(names))
	var pairs []pair
	for gap := 1; gap < len(names); gap++ {
		for i := 0; i+gap < len(names); i++ {
			pairs = append(pairs, pair{PolicyA: names[perm[i]], PolicyB: names[perm[i+gap]]})
		}
	}
	i := -1
	return func() *pair {
		i++
		p := pairs[i%len(pairs)]
		return &p
	}
}

// sweepExplain runs the one-pass sweep and the policy-diff engines on the
// probe workloads' warm streams: one closed-loop client alternates
// never-repeating sweeps with the chain of explanations, until every
// registry policy has been explained once. That is a fixed amount of work
// whatever the seed, so the phase does not follow --seconds: explanations
// of different policies cost different amounts, and a phase that stopped
// at a deadline would explain a different set of them for each seed.
func sweepExplain(r *run) error {
	d, c, err := r.setUp(r.setUpReps(), 1, r.warmStreams)
	if err != nil {
		return err
	}
	return r.timed(d, c, func() {
		sweeps := r.distinctLattices(6)
		pairs := explainPairs(r.rng(7))
		n := 0
		next := func() jobRequest {
			n++
			if n%2 == 1 {
				return sweeps()
			}
			return jobRequest{Workloads: probeWorkloads, Explain: pairs()}
		}
		chain := len(policy.Names()) - 1
		r.timedJobs = r.closedLoop(c, next, 2*chain, time.Time{},
			func(q jobRequest, jr jobRun, ref time.Duration) error {
				if _, err := checkCount(q, jr.Result, suiteSize); err != nil {
					return err
				}
				r.record(kindOf(q), jr.Done, ref)
				r.keep(q, jr, 3)
				return nil
			})
		// A pooled median of two kinds in equal numbers falls in the gap
		// between them; the geometric mean of their medians moves with
		// either. compare also judges each kind's series on its own.
		r.jobP50 = math.Sqrt(median(r.series["sweep"+adjSuffix]) * median(r.series["explain"+adjSuffix]))
	})
}
