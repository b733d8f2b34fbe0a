// Package cpu provides the two processor timing models of the paper's
// methodology:
//
//   - LinearModel estimates cycles as a linear function of instruction and
//     last-level-cache event counts. This is the paper's genetic-algorithm
//     fitness function (Section 4.3): fast, but blind to memory-level
//     parallelism.
//   - WindowModel is a CMP$im-like analytic model of a 4-wide out-of-order
//     core with a 128-entry instruction window (Section 4.5): dispatch is
//     limited by issue width and by in-order retirement of the instruction
//     window, so independent long-latency misses that fall within a window
//     overlap naturally (MLP), and DRAM-latency misses stall the window.
//     It keeps exact time in integer ticks of 1/width cycle (a quarter
//     cycle on the paper's core), and a replay steps it once per block of
//     LLC records.
//
// Neither model is cycle-accurate; the paper's CMP$im is itself "accurate to
// within 4% of a detailed cycle-accurate simulator", and what the
// reproduction needs is the first-order coupling between miss counts, miss
// overlap and IPC.
package cpu

import (
	"gippr/internal/cache"
	"gippr/internal/trace"
)

// LinearModel estimates cycles = Instructions*BaseCPI +
// LLCAccesses*L3HitCycles + LLCMisses*MissCycles. Only LLC-level activity is
// modelled because L1/L2 behaviour is identical across the LLC policies
// being compared (their cost is folded into BaseCPI).
type LinearModel struct {
	BaseCPI     float64
	L3HitCycles float64
	MissCycles  float64
}

// DefaultLinearModel matches the simulated hierarchy: a 4-wide core with
// near-L1-resident base behaviour, a 30-cycle L3 and 200-cycle DRAM with a
// fixed MLP discount folded into the miss cost.
func DefaultLinearModel() LinearModel {
	return LinearModel{BaseCPI: 0.5, L3HitCycles: 30, MissCycles: 150}
}

// Cycles returns the estimated cycle count.
func (m LinearModel) Cycles(instructions, llcAccesses, llcMisses uint64) float64 {
	return float64(instructions)*m.BaseCPI +
		float64(llcAccesses)*m.L3HitCycles +
		float64(llcMisses)*m.MissCycles
}

// CPIFromReplay applies the model to an LLC replay result.
func (m LinearModel) CPIFromReplay(rs cache.ReplayStats) float64 {
	if rs.Instructions == 0 {
		return m.BaseCPI
	}
	return m.Cycles(rs.Instructions, rs.Accesses, rs.Misses) / float64(rs.Instructions)
}

// SampledCPI applies the model to a set-sampled replay: accesses and misses
// describe only the sampled sets, so they are scaled up by factor (the
// cache's Config.SampleFactor) before costing, while instructions already
// cover the whole stream. Callers at full fidelity (factor 1) should use
// CPIFromReplay instead — the two compute the same value mathematically but
// associate the floating-point operations differently, and full-fidelity
// paths promise bit-identical results.
func (m LinearModel) SampledCPI(rs cache.ReplayStats, factor float64) float64 {
	if rs.Instructions == 0 {
		return m.BaseCPI
	}
	cycles := float64(rs.Instructions)*m.BaseCPI +
		factor*(float64(rs.Accesses)*m.L3HitCycles+float64(rs.Misses)*m.MissCycles)
	return cycles / float64(rs.Instructions)
}

// WindowModel models a width-wide core with an inst-window of robSize
// entries. Every instruction dispatches at most width per cycle, no earlier
// than the retirement of the instruction robSize slots ahead of it, and
// retires in order when its latency has elapsed; total cycles is the last
// retirement time. Misses whose dispatch times fall within a window overlap,
// which is exactly the MLP effect the paper's linear fitness function
// cannot see (Section 4.3).
//
// Time is kept in integer ticks of 1/width cycle: a dispatch slot is one
// tick, and every latency and the DRAM interval are whole numbers of
// ticks. Each instruction is then a short chain of integer maxima, which
// compile to conditional moves instead of data-dependent branches. At a
// power-of-two width, such as the paper's 4, Cycles is bit-identical to
// a float64 model that adds 1/width cycle per dispatch: every value that
// model computes is a multiple of 1/width, and below 2^50 cycles (some
// 2^40 instructions into a stream) float64 adds such multiples exactly, so
// its sums equal the tick sums divided by width. At any other width the
// ticks are exact where float64 would round.
type WindowModel struct {
	width      int64   // ticks per cycle
	retire     []int64 // retirement tick of each in-window instruction (a ring)
	head       int     // ring slot of the oldest in-window instruction
	prevRetire int64   // retirement tick of the youngest instruction
	clock      int64   // earliest dispatch tick of the next instruction
	memReady   int64   // earliest tick the DRAM channel takes the next miss
	instrs     uint64
}

// memInterval is the minimum number of cycles between successive DRAM fills
// (the bandwidth/MSHR limit): a 64-byte line on a core running a few GHz
// against tens of GB/s of bandwidth. Without it, an in-order-retire window
// with unlimited memory concurrency makes CPI insensitive to miss counts
// once misses are denser than one per window — every window refill costs
// one DRAM latency regardless of how many misses it contains. Real memory
// systems serialize on channel bandwidth and MSHR occupancy; this single
// constant restores that first-order effect. It applies to misses only.
const memInterval = 10

// NewWindowModel returns a model; the paper's core is NewWindowModel(4, 128).
func NewWindowModel(width, robSize int) *WindowModel {
	if width < 1 || robSize < 1 {
		panic("cpu: invalid window model parameters")
	}
	return &WindowModel{width: int64(width), retire: make([]int64, robSize)}
}

// DefaultWindowModel is the paper's 4-wide, 128-entry configuration.
func DefaultWindowModel() *WindowModel { return NewWindowModel(4, 128) }

// Reset clears accumulated time (used at the end of cache warm-up so only
// the measurement window is timed).
func (m *WindowModel) Reset() {
	clear(m.retire)
	m.head = 0
	m.prevRetire = 0
	m.clock = 0
	m.instrs = 0
	m.memReady = 0
}

// Step accounts one trace record whose memory access hit in a cache: gap-1
// single-cycle non-memory instructions followed by one memory instruction
// with the given latency.
func (m *WindowModel) Step(gap uint32, latency int) {
	m.stepBlock([]trace.Record{{Gap: gap}}, &cache.HitBits{1}, latency, latency)
}

// StepMiss accounts one trace record whose memory access goes to DRAM: as
// Step, but the access also occupies a DRAM service slot, so dense miss
// streams serialize on memory bandwidth.
func (m *WindowModel) StepMiss(gap uint32, latency int) {
	m.stepBlock([]trace.Record{{Gap: gap}}, &cache.HitBits{}, latency, latency)
}

// stepBlock accounts a block of records from a cache's hit bits: record j
// is a Step at hitLat when bit j is set and a StepMiss at missLat when it is
// clear. The model's state stays in locals across the block, and the hit
// bit selects the latency and the DRAM slot by masking, not by a branch.
func (m *WindowModel) stepBlock(blk []trace.Record, hits *cache.HitBits, hitLat, missLat int) {
	w := m.width
	hitT, missExtra, memT := int64(hitLat)*w, int64(missLat-hitLat)*w, memInterval*w
	retire, head, rob := m.retire, m.head, len(m.retire)
	clock, prev, memReady, instrs := m.clock, m.prevRetire, m.memReady, m.instrs
	for j := range blk {
		miss := int64(hits[j>>6]>>(j&63)&1) - 1 // all ones on a miss, 0 on a hit
		n := max(int(blk[j].Gap)-1, 0)          // single-cycle instructions first
		if n > 2*rob {
			// Fast-forward all but the last window's worth of them. Dispatch
			// is bounded by issue bandwidth and by the window drain: at most
			// rob instructions run ahead of the last retirement, so a long
			// latency still charges its stall before a huge gap.
			skip := n - rob
			clock = max(clock+int64(skip), prev+int64(skip-rob))
			prev = max(prev, clock)
			instrs += uint64(skip)
			n = rob
		}
		for range n {
			d := max(clock, retire[head]) // window full: wait for the oldest
			prev = max(d+w, prev)         // in-order retirement
			retire[head] = prev
			head++
			if head == rob {
				head = 0
			}
			clock = d + 1
		}
		d := max(clock, retire[head])
		start := max(d, memReady&miss) // a miss waits for the DRAM channel
		memReady = max(memReady, (start+memT)&miss)
		prev = max(start+hitT+missExtra&miss, prev)
		retire[head] = prev
		head++
		if head == rob {
			head = 0
		}
		clock = d + 1
		instrs += uint64(n) + 1
	}
	m.head, m.clock, m.prevRetire, m.memReady, m.instrs = head, clock, prev, memReady, instrs
}

// Cycles returns the current total cycle count (time of the last
// retirement).
func (m *WindowModel) Cycles() float64 { return float64(m.prevRetire) / float64(m.width) }

// Instructions returns the number of instructions accounted so far.
func (m *WindowModel) Instructions() uint64 { return m.instrs }

// IPC returns instructions per cycle so far (0 before any instruction).
func (m *WindowModel) IPC() float64 {
	if m.prevRetire == 0 {
		return 0
	}
	return float64(m.instrs) / m.Cycles()
}
