// Package gippr is a from-scratch reproduction of "Insertion and Promotion
// for Tree-Based PseudoLRU Last-Level Caches" (Daniel A. Jiménez, MICRO-46,
// 2013): last-level cache replacement driven by evolved insertion/promotion
// vectors (IPVs) over tree PseudoLRU state, with set-dueling adaptivity —
// state-of-the-art replacement performance at under one bit per cache block.
//
// This root package is the curated public API: a facade over the internal
// packages that implement the paper's contribution (GIPLR, GIPPR, DGIPPR)
// and every substrate it depends on — a trace-driven multi-level cache
// simulator, CMP$im-like timing models, synthetic SPEC-stand-in workloads, a
// genetic-algorithm IPV search, the competing policies (LRU, PLRU, DIP,
// DRRIP, PDP, SHiP, ...) and Belady's MIN.
//
// The v1 entry point is New, which builds a Session: the LLC geometry plus
// cross-cutting options (WithTelemetry, WithSampling, WithWorkers) that
// every construction derived from it honours. Invalid input surfaces at New
// as a typed sentinel (ErrBadGeometry, ErrUnknownPolicy, ErrBadVector,
// ErrUnknownWorkload) testable with errors.Is. Quick start (see
// examples/quickstart for the runnable version):
//
//	sess, err := gippr.New(gippr.LLCConfig())     // 4 MB, 16-way
//	if err != nil { ... }
//	cfg := sess.Config()
//	pol := gippr.NewDGIPPR4(cfg.Sets(), cfg.Ways, // the paper's headline policy
//		gippr.PaperWI4DGIPPR)
//	h := sess.Hierarchy(pol)                      // LRU L1/L2, pol at the LLC
//	level := h.Access(gippr.Record{Gap: 1, Addr: 0xdeadbeef})
//
// Every replay-style entry point (Session.Replay, Session.Optimal,
// Session.Sweep, Session.Explain) shares one warm-up contract: a warm
// argument (or Warm option field) names the number of leading stream
// records that only populate cache state — they count toward no statistic,
// no telemetry event, and no MPKI figure. Measurement covers exactly the
// remaining records, a warm beyond the stream's length clamps to it, and
// warm 0 measures the whole stream. Zero-valued options likewise default
// to the Session's own configuration: Sweep geometry fields fall back to
// the configured LLC, and ExplainOptions' zero value measures the whole
// stream under the Session's fidelity.
//
// Beyond replaying, Session.Explain answers *why* two policies differ: an
// Explanation decomposes the miss delta exactly across reuse-interval
// buckets and cites the insertion/promotion divergence behind it — the
// same versioned document gippr-report's diff section prints and
// gippr-serve's /v1/explain serves.
//
// The experiment harness reproducing every figure in the paper lives in
// internal/experiments and is driven by cmd/gippr-report and the benchmarks
// in bench_test.go; cmd/gippr-serve serves the same evaluation engine as a
// long-lived HTTP/JSON job daemon (see internal/serve). DESIGN.md maps
// paper figure -> module -> bench target; EXPERIMENTS.md records
// paper-vs-measured results.
package gippr
