package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/explain"
	"gippr/internal/ipv"
	"gippr/internal/resultstore"
	"gippr/internal/stackdist"
	"gippr/internal/workload"
)

// resultDoc is the result document's wire shape with typed payloads: what
// the traced run encodes and stores in place of the daemon.
type resultDoc struct {
	ID           string                   `json:"id"`
	Fingerprint  string                   `json:"fingerprint"`
	Cache        json.RawMessage          `json:"cache"`
	Records      int                      `json:"records_per_phase"`
	WarmFrac     float64                  `json:"warm_frac"`
	Sweep        *experiments.LatticeSpec `json:"sweep,omitempty"`
	Cells        []experiments.GridCell   `json:"cells"`
	Explanations []*explain.Explanation   `json:"explanations,omitempty"`
}

// scaleOf is the experiment scale the daemon runs at for a records setting.
func scaleOf(records int) experiments.Scale {
	if records > 0 {
		return experiments.CustomScale(records, experiments.Default.WarmFrac)
	}
	return experiments.Default
}

// reenactor repeats a run's served requests in-process, with a span around
// every call into a layer, and checks the recomputed results against the
// served ones bit for bit.
type reenactor struct {
	ctx   context.Context
	t     *tracer
	root  *span
	lab   *experiments.Lab
	store *resultstore.Store

	mismatches []string
	puts       []float64 // ms
	gets       []float64 // ms
	encodes    []float64 // ms
	entryKB    []float64
	traced     time.Duration // in-process time of the requests the daemon also served
	served     time.Duration // the daemon's time for the same requests
}

func newReenactor(ctx context.Context, t *tracer, root *span, records int, storeDir string) (*reenactor, error) {
	st, err := resultstore.Open(storeDir, 0)
	if err != nil {
		return nil, err
	}
	return &reenactor{ctx: ctx, t: t, root: root, lab: experiments.NewLab(scaleOf(records)), store: st}, nil
}

// reenact repeats the workload's requests: the same set-up, then the
// kept requests in the order they were served.
func (re *reenactor) reenact(r *run) error {
	kept := r.kept
	if len(kept) == 0 {
		return errors.New("no served requests to re-enact")
	}
	switch r.workload {
	case "cold_grid":
		// Every restart starts from nothing, so each gets a fresh Lab.
		for i := range kept {
			re.lab = experiments.NewLab(re.lab.Scale)
			ws, err := workloadsOf(kept[i].Req)
			if err != nil {
				return err
			}
			if _, err := re.request(fmt.Sprintf("restart-%d", i), kept[i].Req, &kept[i], ws); err != nil {
				return err
			}
		}
	case "warm_ipv", "sweep_explain":
		warm := warmupFor(r.workload)
		ws, err := workloadsOf(warm)
		if err != nil {
			return err
		}
		if _, err := re.request("warmup", warm, nil, ws); err != nil {
			return err
		}
		for i := range kept {
			if _, err := re.request(fmt.Sprintf("%s-%d", kindOf(kept[i].Req), i), kept[i].Req, &kept[i], nil); err != nil {
				return err
			}
		}
	case "store_hits":
		var fps []string
		for i := range kept {
			var prefetch []workload.Workload
			if i == 0 {
				ws, err := workloadsOf(kept[0].Req)
				if err != nil {
					return err
				}
				prefetch = ws
			}
			fp, err := re.request(fmt.Sprintf("populate-%d", i), kept[i].Req, &kept[i], prefetch)
			if err != nil {
				return err
			}
			fps = append(fps, fp)
		}
		re.hits(r, fps)
	default:
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	return nil
}

// hitReplays is how many store hits the traced store_hits run repeats.
const hitReplays = 300

// hits repeats the read path of store hits in the served order: a store
// read and the result encoding, no simulation.
func (re *reenactor) hits(r *run, fps []string) {
	for i := 0; i < hitReplays; i++ {
		fp := fps[hitPick(r.seed, i, len(fps))]
		re.t.do(re.root, spanRequest, fmt.Sprintf("hit-%d", i), func(req *span) {
			var doc resultDoc
			ok := false
			g := re.t.do(req, "resultstore.get", "", func(*span) { ok = re.store.Get(fp, &doc) })
			re.gets = append(re.gets, ms(g.dur()))
			if !ok {
				re.mismatch("hit-%d: store entry %q missing", i, fp)
				return
			}
			re.encode(req, doc)
		})
	}
}

func (re *reenactor) mismatch(format string, args ...any) {
	re.mismatches = append(re.mismatches, fmt.Sprintf(format, args...))
}

// request computes one request through the Lab (capturing the prefetch
// workloads' streams first, inside the request, as a cold daemon would),
// encodes and stores the result, reads it back, and compares it with the
// served result when there is one. It returns the fingerprint stored
// under.
func (re *reenactor) request(name string, q jobRequest, sv *served, prefetch []workload.Workload) (string, error) {
	var doc resultDoc
	var err error
	req := re.t.do(re.root, spanRequest, name, func(req *span) {
		if prefetch != nil {
			re.t.do(req, "experiments.streams", "", func(s *span) {
				err = re.lab.PrefetchStreamsCtx(re.ctx, prefetch)
				s.Records = streamRecords(re.lab, prefetch)
			})
			if err != nil {
				return
			}
		}
		if doc, err = re.compute(req, q); err != nil {
			return
		}
		doc.Fingerprint = "bench|" + name
		if sv != nil {
			var m resultDoc
			if err = json.Unmarshal(sv.Result, &m); err != nil {
				return
			}
			doc.Fingerprint, doc.Cache, doc.Records, doc.WarmFrac = m.Fingerprint, m.Cache, m.Records, m.WarmFrac
		}
		re.encode(req, doc)
		p := re.t.do(req, "resultstore.put", "", func(s *span) { err = re.store.Put(doc.Fingerprint, doc) })
		re.puts = append(re.puts, ms(p.dur()))
		if err != nil {
			return
		}
		if info, serr := os.Stat(filepath.Join(re.store.Dir(), resultstore.Key(doc.Fingerprint))); serr == nil {
			re.entryKB = append(re.entryKB, float64(info.Size())/1024)
		}
		var back resultDoc
		ok := false
		g := re.t.do(req, "resultstore.get", "", func(*span) { ok = re.store.Get(doc.Fingerprint, &back) })
		re.gets = append(re.gets, ms(g.dur()))
		if !ok {
			re.mismatch("%s: stored entry did not read back", name)
		}
		if sv != nil {
			re.t.do(req, spanVerify, "", func(*span) {
				if verr := sameItems(sv.Result, doc); verr != nil {
					re.mismatch("%s: %v", name, verr)
				}
			})
		}
	})
	if err != nil {
		return "", fmt.Errorf("traced %s: %w", name, err)
	}
	if sv != nil {
		re.traced += req.dur()
		re.served += sv.Latency
	}
	return doc.Fingerprint, nil
}

// encode renders a result document the way the daemon writes it.
func (re *reenactor) encode(parent *span, doc resultDoc) {
	e := re.t.do(parent, "serve.result_encode", "", func(s *span) {
		b, _ := json.MarshalIndent(doc, "", "  ") // plain data always encodes
		s.Bytes = int64(len(b))
	})
	re.encodes = append(re.encodes, ms(e.dur()))
}

// compute runs one request's engine call: Lab.Grid, Lab.SweepGrid or
// Lab.DiffAll.
func (re *reenactor) compute(parent *span, q jobRequest) (resultDoc, error) {
	var doc resultDoc
	wls, err := workloadsOf(q)
	if err != nil {
		return doc, err
	}
	switch {
	case q.Explain != nil:
		a, aerr := experiments.SpecFromRegistry(q.Explain.PolicyA)
		b, berr := experiments.SpecFromRegistry(q.Explain.PolicyB)
		if err := errors.Join(aerr, berr); err != nil {
			return doc, err
		}
		re.t.do(parent, "experiments.diff", "", func(s *span) {
			doc.Explanations, err = re.lab.DiffAll(re.ctx, a, b, wls)
			s.Cells = int64(len(doc.Explanations))
		})
	case q.Sweep != nil:
		ls := latticeSpec(*q.Sweep)
		doc.Sweep = &ls
		re.t.do(parent, "experiments.sweep", "", func(s *span) {
			doc.Cells, err = re.lab.SweepGrid(re.ctx, ls, wls, nil)
			s.Cells = int64(len(doc.Cells))
		})
	default:
		specs, serr := specsOf(q)
		if serr != nil {
			return doc, serr
		}
		re.t.do(parent, "experiments.grid", "", func(s *span) {
			doc.Cells, err = re.lab.Grid(re.ctx, specs, wls, nil)
			s.Cells = int64(len(doc.Cells))
		})
	}
	return doc, err
}

// sameItems compares the recomputed cells or explanations with the served
// ones, item by item, as compact JSON.
func sameItems(servedResult []byte, doc resultDoc) error {
	var m manifest
	if err := json.Unmarshal(servedResult, &m); err != nil {
		return fmt.Errorf("decode served result: %w", err)
	}
	served := m.Cells
	var mine []any
	for i := range doc.Cells {
		mine = append(mine, doc.Cells[i])
	}
	if doc.Explanations != nil {
		served = m.Explanations
		mine = mine[:0]
		for _, e := range doc.Explanations {
			mine = append(mine, e)
		}
	}
	if len(served) != len(mine) {
		return fmt.Errorf("served %d items, recomputed %d", len(served), len(mine))
	}
	for i := range served {
		var want bytes.Buffer
		if err := json.Compact(&want, served[i]); err != nil {
			return err
		}
		got, err := json.Marshal(mine[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(want.Bytes(), got) {
			return fmt.Errorf("item %d differs:\n served     %s\n recomputed %s", i, want.Bytes(), got)
		}
	}
	return nil
}

// warmupFor is the set-up job of warm_ipv and sweep_explain: one LRU grid
// over the workloads the timed phase asks for (the whole suite, or the
// probe set), which captures their streams.
func warmupFor(workload string) jobRequest {
	q := jobRequest{Policies: []string{"lru"}, Exact: true}
	if workload == "sweep_explain" {
		q.Workloads = probeWorkloads
	}
	return q
}

// workloadsOf resolves a request's workload names (empty means the suite).
func workloadsOf(q jobRequest) ([]workload.Workload, error) {
	if len(q.Workloads) == 0 {
		return workload.Suite(), nil
	}
	var out []workload.Workload
	for _, n := range q.Workloads {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// specsOf resolves a grid request's policies as the daemon does: the
// default set unless exact, plus the explicit IPV under ipvLabel.
func specsOf(q jobRequest) ([]experiments.Spec, error) {
	names := q.Policies
	if len(names) == 0 && !q.Exact {
		names = defaultPolicies
	}
	var specs []experiments.Spec
	for _, n := range names {
		sp, err := experiments.SpecFromRegistry(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	if q.IPV != "" {
		v, err := ipv.Parse(q.IPV)
		if err != nil {
			return nil, err
		}
		specs = append(specs, experiments.SpecForIPV(ipvLabel, v))
	}
	return specs, nil
}

func latticeSpec(l lattice) experiments.LatticeSpec {
	ls := experiments.LatticeSpec{MinSets: l.MinSets, MaxSets: l.MaxSets, MaxWays: l.MaxWays}
	for _, g := range l.PLRU {
		ls.PLRU = append(ls.PLRU, stackdist.Geometry{Sets: g.Sets, Ways: g.Ways})
	}
	return ls
}

// streamRecords counts the LLC records the Lab holds for wls.
func streamRecords(lab *experiments.Lab, wls []workload.Workload) int64 {
	var n int64
	for _, w := range wls {
		for _, st := range lab.Streams(w) {
			n += int64(len(st.Records))
		}
	}
	return n
}
