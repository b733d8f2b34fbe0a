package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/ipv"
	"gippr/internal/policy"
	"gippr/internal/stackdist"
	"gippr/internal/stats"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
	"gippr/internal/workload"
)

// probeWorkloads are the fixed inputs of the per-record layer probes,
// chosen to span working-set size against the modelled caches: a pointer
// chase far beyond the LLC (mcf), a stream with a small reused set (lbm),
// a loop just beyond the LLC (sphinx3) and a cache-friendly one (dealII).
var probeWorkloads = []string{"mcf_like", "lbm_like", "sphinx3_like", "dealII_like"}

// probeLayers measures each layer's cost per unit of work on the probe
// workloads, with a span around every call, and adds the per-layer
// metrics to out. The probes do not depend on the run's seed, so their
// figures compare across runs and workloads.
func probeLayers(ctx context.Context, t *tracer, root *span, records int, out map[string]float64) error {
	var err error
	t.do(root, spanRequest, "probe", func(req *span) { err = probe(ctx, t, req, records, out) })
	return err
}

func probe(ctx context.Context, t *tracer, req *span, records int, out map[string]float64) error {
	scale := scaleOf(records)
	cfg := cache.L3Config
	var pw []workload.Workload
	for _, n := range probeWorkloads {
		w, err := workload.ByName(n)
		if err != nil {
			return err
		}
		pw = append(pw, w)
	}
	gippr := func() cache.Policy { return policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR) }
	scalar := []func() cache.Policy{
		func() cache.Policy { return policy.NewDRRIP(cfg.Sets(), cfg.Ways) },
		func() cache.Policy { return policy.NewPDP(cfg.Sets(), cfg.Ways) },
		func() cache.Policy { return policy.NewDGIPPR4(cfg.Sets(), cfg.Ways, ipv.PaperWI4DGIPPR) },
	}
	lru := func(c cache.Config) *cache.Cache { return cache.New(c, policy.NewTrueLRU(c.Sets(), c.Ways)) }

	var refs, llcRecs int64
	var gen, capture, batch, batchTel, scal, scalTel, window, sd time.Duration
	for _, w := range pw {
		for pi, ph := range w.Phases {
			var recs []trace.Record
			gen += t.do(req, "workload.gen", "", func(s *span) {
				recs = ph.Records(uint64(pi)+1, scale.PhaseRecords)
				s.Records = int64(len(recs))
			}).dur()
			var llc []trace.Record
			capture += t.do(req, "cache.capture", "", func(s *span) {
				h := cache.NewHierarchy(lru(cache.L1Config), lru(cache.L2Config), lru(cfg))
				h.RecordLLC = true
				h.ReserveLLC(len(recs))
				h.Run(trace.NewSliceSource(recs))
				llc = h.LLCStream
				s.Records = int64(len(recs))
			}).dur()
			refs += int64(len(recs))
			n := int64(len(llc))
			llcRecs += n
			warm := int(float64(len(llc)) * scale.WarmFrac)
			batch += t.do(req, "batchreplay.replay", "", func(s *span) {
				cache.ReplayStream(llc, cfg, gippr(), warm)
				s.Records = n
			}).dur()
			batchTel += t.do(req, "batchreplay.replay_tel", "", func(s *span) {
				cache.ReplayStreamTel(llc, cfg, gippr(), warm, &telemetry.Sink{})
				s.Records = n
			}).dur()
			for _, mk := range scalar {
				scal += t.do(req, "cache.scalar_replay", "", func(s *span) {
					cache.ReplayStream(llc, cfg, mk(), warm)
					s.Records = n
				}).dur()
				scalTel += t.do(req, "cache.scalar_replay_tel", "", func(s *span) {
					cache.ReplayStreamTel(llc, cfg, mk(), warm, &telemetry.Sink{})
					s.Records = n
				}).dur()
			}
			window += t.do(req, "cpu.window_replay", "", func(s *span) {
				cpu.WindowReplay(llc, cfg, gippr(), warm, cpu.DefaultWindowModel())
				s.Records = n
			}).dur()
			var serr error
			sd += t.do(req, "stackdist.run", "", func(s *span) {
				_, serr = stackdist.Run(llc, experiments.DefaultLatticeSpec(cfg).Options(cfg.BlockBytes, warm))
				s.Records = n
			}).dur()
			if serr != nil {
				return serr
			}
		}
	}
	perRec := func(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	out["workload.gen_ns_per_ref"] = perRec(gen, refs)
	out["cache.capture_ns_per_ref"] = perRec(capture, refs)
	out["cache.llc_per_ref"] = float64(llcRecs) / float64(refs)
	out["batchreplay.ns_per_record"] = perRec(batch, llcRecs)
	out["batchreplay.tel_ns_per_record"] = perRec(batchTel, llcRecs)
	out["cache.scalar_ns_per_record"] = perRec(scal, llcRecs*int64(len(scalar)))
	out["cache.scalar_tel_ns_per_record"] = perRec(scalTel, llcRecs*int64(len(scalar)))
	out["cpu.window_ns_per_record"] = perRec(window-batch, llcRecs)
	out["stackdist.ns_per_record"] = perRec(sd, llcRecs)
	return probeLab(ctx, t, req, scale, pw, out)
}

// probeLab measures the Lab's entry points on the probe workloads from a
// cold Lab: stream capture, a grid on the warm streams, memo growth over
// distinct IPV grids, a one-pass sweep, a policy diff, and the diff's
// decomposition alone.
func probeLab(ctx context.Context, t *tracer, req *span, scale experiments.Scale, pw []workload.Workload, out map[string]float64) error {
	lab := experiments.NewLab(scale)
	var err error
	st := t.do(req, "experiments.streams", "", func(s *span) {
		err = lab.PrefetchStreamsCtx(ctx, pw)
		s.Records = streamRecords(lab, pw)
	})
	if err != nil {
		return err
	}
	out["experiments.streams_s"] = st.dur().Seconds()
	out["experiments.stream_mb"] = float64(st.Records) * float64(unsafe.Sizeof(trace.Record{})) / (1 << 20)

	specs, err := specsOf(jobRequest{IPV: ipv.PaperWIGIPPR.String()})
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g := t.do(req, "experiments.grid", "", func(s *span) {
		_, err = lab.Grid(ctx, specs, pw, nil)
		s.Cells = int64(len(specs) * len(pw))
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	out["experiments.grid_s"] = g.dur().Seconds()
	out["experiments.grid_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	heap := func() float64 {
		t.do(req, "runtime.gc", "", func(*span) { runtime.GC() })
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	const memoJobs = 10
	h0 := heap()
	for j := 0; j < memoJobs; j++ {
		v := ipv.LRU(lab.Cfg.Ways)
		v[len(v)-1] = j // a distinct insertion position per job
		sp := experiments.SpecForIPV(ipvLabel, v)
		t.do(req, "experiments.grid", "", func(s *span) {
			_, err = lab.Grid(ctx, []experiments.Spec{sp}, pw, nil)
			s.Cells = int64(len(pw))
		})
		if err != nil {
			return err
		}
	}
	out["experiments.memo_kb_per_job"] = (heap() - h0) / memoJobs / 1024

	sw := t.do(req, "experiments.sweep", "", func(s *span) {
		var cells []experiments.GridCell
		cells, err = lab.SweepGrid(ctx, experiments.DefaultLatticeSpec(lab.Cfg), pw, nil)
		s.Cells = int64(len(cells))
	})
	if err != nil {
		return err
	}
	out["experiments.sweep_s"] = sw.dur().Seconds()

	gp, err := experiments.SpecFromRegistry("gippr")
	if err != nil {
		return err
	}
	df := t.do(req, "experiments.diff", "", func(s *span) {
		_, err = lab.DiffAll(ctx, experiments.SpecLRU, gp, pw)
		s.Cells = int64(len(pw))
	})
	if err != nil {
		return err
	}
	out["experiments.diff_s"] = df.dur().Seconds()
	return probeDecompose(t, req, lab, scale, pw[0], out)
}

// probeDecompose times explain.Diff alone, on two sides captured from one
// instrumented replay of a probe stream.
func probeDecompose(t *tracer, req *span, lab *experiments.Lab, scale experiments.Scale, w workload.Workload, out map[string]float64) error {
	cfg := lab.Cfg
	recs := lab.Streams(w)[0].Records
	warm := int(float64(len(recs)) * scale.WarmFrac)
	pols := []cache.Policy{policy.NewTrueLRU(cfg.Sets(), cfg.Ways), policy.NewGIPPR(cfg.Sets(), cfg.Ways, ipv.PaperWIGIPPR)}
	sinks := []*telemetry.Sink{{}, {}}
	var res []cpu.ReplayResult
	t.do(req, "cpu.multi_replay_tel", "", func(s *span) {
		res = cpu.MultiWindowReplay(recs, cfg, pols, warm, []*cpu.WindowModel{cpu.DefaultWindowModel(), cpu.DefaultWindowModel()}, sinks)
		s.Records = int64(len(recs))
	})
	side := func(i int, name string) explain.Side {
		return explain.Side{
			Policy: name, MPKI: stats.MPKI(res[i].Misses, res[i].Instructions),
			Misses: res[i].Misses, Hits: res[i].Hits, Accesses: res[i].Accesses,
			Instructions: res[i].Instructions, Telemetry: sinks[i].Report(),
		}
	}
	a, b := side(0, "LRU"), side(1, "GIPPR")
	const reps = 200
	var err error
	d := t.do(req, "explain.decompose", "", func(*span) {
		for i := 0; i < reps && err == nil; i++ {
			_, err = explain.Diff(w.Name, a, b)
		}
	})
	if err != nil {
		return fmt.Errorf("decompose probe: %w", err)
	}
	out["explain.decompose_us"] = float64(d.dur().Nanoseconds()) / 1e3 / reps
	return nil
}
