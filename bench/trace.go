package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one request
// share Req; Parent is 0 for the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Records int64  `json:"records,omitempty"`
	Cells   int64  `json:"cells,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. It is
// used from one goroutine: spans wrap the benchmark's own call sites.
type tracer struct {
	origin time.Time
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs f inside a new span named name under parent. A span's request id
// defaults to its parent's.
func (t *tracer) do(parent *span, name, req string, f func(s *span)) *span {
	s := &span{ID: len(t.spans) + 1, Name: name, Req: req}
	if parent != nil {
		s.Parent = parent.ID
		if req == "" {
			s.Req = parent.Req
		}
	}
	t.spans = append(t.spans, s)
	s.Start = int64(time.Since(t.origin))
	f(s)
	s.End = int64(time.Since(t.origin))
	return s
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover.
func selfTimes(spans []*span) map[int]time.Duration {
	children := map[int][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// Span names that group work rather than measure a layer.
const (
	spanRoot    = "trace"
	spanRequest = "request"
	spanVerify  = "bench.verify"
)

func isLayer(name string) bool {
	return name != spanRoot && name != spanRequest && name != spanVerify
}

// layerSelf sums self time by layer and returns it with the share of the
// root's wall time the layers account for.
func layerSelf(spans []*span) (map[string]time.Duration, float64) {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	var root *span
	var total time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name == spanRoot {
			root = s
		}
		if isLayer(s.Name) {
			out[s.Name] += self[s.ID]
			total += self[s.ID]
		}
	}
	if root == nil || root.dur() <= 0 {
		return out, 0
	}
	return out, float64(total) / float64(root.dur())
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the layer self times, largest first.
func selfTable(self map[string]time.Duration, coverage float64) string {
	names := sortedKeys(self)
	sort.SliceStable(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s\n", "layer (self time)", "s")
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %12.4f\n", n, self[n].Seconds())
	}
	fmt.Fprintf(&b, "layers cover %.1f%% of the traced wall time\n", 100*coverage)
	return b.String()
}
