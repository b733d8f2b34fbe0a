package gippr

import (
	"gippr/internal/cache"
	"gippr/internal/cpu"
	"gippr/internal/ga"
	"gippr/internal/ipv"
	"gippr/internal/multicore"
	"gippr/internal/policy"
	"gippr/internal/trace"
	"gippr/internal/workload"
)

// Core types, re-exported from the implementation packages.
type (
	// IPV is an insertion/promotion vector: k+1 entries in 0..k-1 for a
	// k-way cache — V[i] is the new position for a block re-referenced at
	// position i, V[k] the insertion position for an incoming block.
	IPV = ipv.Vector

	// Record is one memory reference of a trace.
	Record = trace.Record

	// Source yields a stream of trace records.
	Source = trace.Source

	// Policy is a cache replacement policy; all shipped policies and any
	// user-defined one implement it (see examples/custom-policy).
	Policy = cache.Policy

	// CacheConfig describes a cache geometry.
	CacheConfig = cache.Config

	// Cache is one level of set-associative, trace-driven cache.
	Cache = cache.Cache

	// Hierarchy is the paper's three-level cache hierarchy.
	Hierarchy = cache.Hierarchy

	// Stats counts hits, misses and evictions at one cache.
	Stats = cache.Stats

	// ReplayStats summarizes an LLC-only stream replay.
	ReplayStats = cache.ReplayStats

	// WindowModel is the CMP$im-like out-of-order timing model.
	WindowModel = cpu.WindowModel

	// LinearModel is the linear CPI estimator used as GA fitness.
	LinearModel = cpu.LinearModel

	// Workload is a named synthetic benchmark with weighted phases.
	Workload = workload.Workload

	// EvolveConfig parameterizes the genetic algorithm.
	EvolveConfig = ga.Config

	// EvolveEnv is a fitness-evaluation environment for IPV search.
	EvolveEnv = ga.Env

	// EvolveStream is one LLC-filtered stream used for fitness evaluation.
	EvolveStream = ga.Stream
)

// Standard geometries from the paper (32 KB/8w L1, 256 KB/8w L2,
// 4 MB/16w L3, 200-cycle DRAM).
func L1Config() CacheConfig  { return cache.L1Config }
func L2Config() CacheConfig  { return cache.L2Config }
func LLCConfig() CacheConfig { return cache.L3Config }

// Vector constructors and the paper's published vectors.
var (
	// PaperGIPLR is the evolved true-LRU vector of Figure 3.
	PaperGIPLR = ipv.PaperGIPLR
	// PaperWIGIPPR is the workload-inclusive single GIPPR vector (§5.3).
	PaperWIGIPPR = ipv.PaperWIGIPPR
	// PaperWI2DGIPPR is the workload-inclusive 2-DGIPPR pair (§5.3).
	PaperWI2DGIPPR = ipv.PaperWI2DGIPPR
	// PaperWI4DGIPPR is the workload-inclusive 4-DGIPPR quad (§5.3).
	PaperWI4DGIPPR = ipv.PaperWI4DGIPPR
)

// LRUVector returns the classic LRU vector for a k-way cache.
func LRUVector(k int) IPV { return ipv.LRU(k) }

// LIPVector returns the LRU-insertion vector for a k-way cache.
func LIPVector(k int) IPV { return ipv.LIP(k) }

// ParseIPV parses a vector from text, e.g. "[ 0 0 1 0 3 ... 11 13 ]".
func ParseIPV(s string) (IPV, error) { return ipv.Parse(s) }

// Cache construction.

// NewCache returns a cache with the given geometry and policy.
func NewCache(cfg CacheConfig, pol Policy) *Cache { return cache.New(cfg, pol) }

// NewHierarchy assembles an L1/L2/L3 hierarchy from three caches.
func NewHierarchy(l1, l2, l3 *Cache) *Hierarchy { return cache.NewHierarchy(l1, l2, l3) }

// Replacement policies. Each constructor takes the cache geometry (sets,
// ways) and returns a fresh, unshared policy instance.

// NewLRU returns true least-recently-used replacement.
func NewLRU(sets, ways int) Policy { return policy.NewTrueLRU(sets, ways) }

// NewPLRU returns tree-based PseudoLRU replacement.
func NewPLRU(sets, ways int) Policy { return policy.NewPLRU(sets, ways) }

// NewRandom returns random replacement.
func NewRandom(sets, ways int) Policy { return policy.NewRandom(sets, ways) }

// NewFIFO returns first-in-first-out replacement.
func NewFIFO(sets, ways int) Policy { return policy.NewFIFO(sets, ways) }

// NewNRU returns not-recently-used replacement.
func NewNRU(sets, ways int) Policy { return policy.NewNRU(sets, ways) }

// NewLIP returns LRU-insertion replacement (Qureshi et al.).
func NewLIP(sets, ways int) Policy { return policy.NewLIP(sets, ways) }

// NewBIP returns bimodal-insertion replacement (Qureshi et al.).
func NewBIP(sets, ways int) Policy { return policy.NewBIP(sets, ways) }

// NewDIP returns dynamic-insertion replacement (Qureshi et al.).
func NewDIP(sets, ways int) Policy { return policy.NewDIP(sets, ways) }

// NewSRRIP returns static re-reference interval prediction (Jaleel et al.).
func NewSRRIP(sets, ways int) Policy { return policy.NewSRRIP(sets, ways) }

// NewBRRIP returns bimodal RRIP (Jaleel et al.).
func NewBRRIP(sets, ways int) Policy { return policy.NewBRRIP(sets, ways) }

// NewDRRIP returns dynamic RRIP (Jaleel et al.), the paper's primary
// state-of-the-art comparison point.
func NewDRRIP(sets, ways int) Policy { return policy.NewDRRIP(sets, ways) }

// NewPDP returns the protecting-distance policy (Duong et al.).
func NewPDP(sets, ways int) Policy { return policy.NewPDP(sets, ways) }

// NewSHiP returns signature-based hit prediction (Wu et al.).
func NewSHiP(sets, ways int) Policy { return policy.NewSHiP(sets, ways) }

// NewGIPLR returns true-LRU replacement driven by an IPV (paper §2).
func NewGIPLR(sets, ways int, v IPV) Policy { return policy.NewGIPLR(sets, ways, v) }

// NewGIPPR returns tree-PseudoLRU replacement driven by an IPV — the
// paper's main contribution (§3.4). Under one bit per block.
func NewGIPPR(sets, ways int, v IPV) Policy { return policy.NewGIPPR(sets, ways, v) }

// NewDGIPPR2 returns 2-vector dynamic GIPPR with set-dueling (§3.5).
func NewDGIPPR2(sets, ways int, vecs [2]IPV) Policy { return policy.NewDGIPPR2(sets, ways, vecs) }

// NewDGIPPR4 returns 4-vector dynamic GIPPR with multi-set-dueling — the
// configuration the paper recommends deploying.
func NewDGIPPR4(sets, ways int, vecs [4]IPV) Policy { return policy.NewDGIPPR4(sets, ways, vecs) }

// Offline analysis.

// OptimalMisses replays an LLC access stream under Belady's MIN (with
// bypass) and returns its miss statistics; the first warm accesses are
// uncounted.
func OptimalMisses(stream []Record, cfg CacheConfig, warm int) ReplayStats {
	return policy.Optimal(stream, cfg, warm)
}

// ReplayStream replays an LLC access stream into a standalone cache and
// returns miss statistics; the first warm accesses are uncounted.
func ReplayStream(stream []Record, cfg CacheConfig, pol Policy, warm int) ReplayStats {
	return cache.ReplayStream(stream, cfg, pol, warm)
}

// NewWindowModel returns the paper's 4-wide, 128-entry-window timing model.
func NewWindowModel() *WindowModel { return cpu.DefaultWindowModel() }

// Workloads.

// Workloads returns the 29 synthetic SPEC CPU 2006 stand-ins.
func Workloads() []Workload { return workload.Suite() }

// WorkloadByName finds one workload of the suite.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Evolution (paper §4).

// Evolve runs the genetic algorithm and returns the best vector, its
// fitness, and the per-generation best-fitness history.
func Evolve(env *EvolveEnv, cfg EvolveConfig) (IPV, float64, []float64) {
	return ga.Evolve(env, cfg)
}

// DefaultEvolveConfig returns a small but effective GA configuration.
func DefaultEvolveConfig(seed uint64) EvolveConfig { return ga.DefaultConfig(seed) }

// Anneal refines a vector by simulated annealing (an alternative optimizer
// to the genetic algorithm).
func Anneal(env *EvolveEnv, start IPV, cfg AnnealConfig) (IPV, float64) {
	return ga.Anneal(env, start, cfg)
}

// AnnealConfig parameterizes Anneal.
type AnnealConfig = ga.AnnealConfig

// DefaultAnnealConfig returns a schedule sized like a small GA run.
func DefaultAnnealConfig(seed uint64) AnnealConfig { return ga.DefaultAnnealConfig(seed) }

// Multi-core (future-work item 4): several cores with private L1/L2
// sharing one LLC.

// MulticoreSystem is an n-core chip with a shared last-level cache.
type MulticoreSystem = multicore.System

// MulticoreResult summarizes a multi-core run.
type MulticoreResult = multicore.Result

// NewMulticore builds a system with one core per trace source and the given
// policy on the shared 4 MB LLC.
func NewMulticore(llc Policy, sources []Source) *MulticoreSystem {
	return multicore.New(llc, sources)
}

// Extension policies (paper Section 7 future work).

// RRIPVector is an insertion/promotion vector over RRIP's 2-bit RRPV space.
type RRIPVector = policy.RRIPVector

// NewRRIPV returns RRIP replacement driven by an arbitrary RRPV transition
// vector.
func NewRRIPV(sets, ways int, v RRIPVector) Policy { return policy.NewRRIPV(sets, ways, v) }

// NewBypassGIPPR returns GIPPR combined with a PC-signature bypass
// predictor. Do not use in an inclusive hierarchy.
func NewBypassGIPPR(sets, ways int, v IPV) Policy { return policy.NewBypassGIPPR(sets, ways, v) }
