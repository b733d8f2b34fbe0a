package cpu

import (
	"math"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
)

func TestLinearModelCycles(t *testing.T) {
	m := LinearModel{BaseCPI: 0.5, L3HitCycles: 30, MissCycles: 150}
	got := m.Cycles(1000, 10, 4)
	want := 500.0 + 300 + 600
	if got != want {
		t.Fatalf("Cycles = %v want %v", got, want)
	}
}

func TestLinearModelCPIFromReplay(t *testing.T) {
	m := DefaultLinearModel()
	rs := cache.ReplayStats{Accesses: 100, Misses: 50, Instructions: 1000}
	cpi := m.CPIFromReplay(rs)
	want := (1000*m.BaseCPI + 100*m.L3HitCycles + 50*m.MissCycles) / 1000
	if math.Abs(cpi-want) > 1e-12 {
		t.Fatalf("CPI = %v want %v", cpi, want)
	}
	if got := m.CPIFromReplay(cache.ReplayStats{}); got != m.BaseCPI {
		t.Fatalf("zero-instruction CPI = %v", got)
	}
}

func TestLinearModelMonotonicInMisses(t *testing.T) {
	m := DefaultLinearModel()
	a := m.Cycles(1000, 100, 10)
	b := m.Cycles(1000, 100, 20)
	if b <= a {
		t.Fatal("more misses must cost more cycles")
	}
}

func TestWindowModelPeakIPC(t *testing.T) {
	m := NewWindowModel(4, 128)
	for i := 0; i < 100000; i++ {
		m.Step(1, 1)
	}
	if ipc := m.IPC(); ipc < 3.9 || ipc > 4.01 {
		t.Fatalf("single-cycle stream IPC = %v, want ~4", ipc)
	}
}

func TestWindowModelSerializedMisses(t *testing.T) {
	// Misses separated by more than a window cannot overlap: each costs
	// its full latency.
	m := NewWindowModel(4, 128)
	const misses = 100
	for i := 0; i < misses; i++ {
		m.StepMiss(1000, 200) // 999 cheap instructions, then a 200-cycle miss
	}
	cycles := m.Cycles()
	// Lower bound: instruction bandwidth plus full serialized miss time.
	minCycles := float64(misses)*1000/4 + float64(misses)*0 // misses overlap with nothing
	if cycles < minCycles {
		t.Fatalf("cycles %v below issue-bandwidth bound %v", cycles, minCycles)
	}
	// Each miss should add close to its 200-cycle latency beyond the
	// bandwidth bound (no MLP possible).
	extra := cycles - float64(misses)*1000/4
	if extra < 0.8*float64(misses)*200 {
		t.Fatalf("serialized misses overlapped: extra = %v", extra)
	}
}

func TestWindowModelMLPOverlap(t *testing.T) {
	// Two misses 4 instructions apart fall in one window and overlap:
	// a pair costs barely more than one, far less than two.
	paired := NewWindowModel(4, 128)
	const pairs = 200
	for i := 0; i < pairs; i++ {
		paired.StepMiss(4, 200)
		paired.StepMiss(4, 200)
		paired.Step(2000, 1) // drain the window between pairs
	}
	single := NewWindowModel(4, 128)
	for i := 0; i < pairs; i++ {
		single.StepMiss(4, 200)
		single.Step(4, 1)
		single.Step(2000, 1)
	}
	overlapCost := paired.Cycles() - single.Cycles()
	if overlapCost > 0.3*float64(pairs)*200 {
		t.Fatalf("paired misses cost %v extra cycles; MLP not modelled", overlapCost)
	}
}

func TestWindowModelWindowStall(t *testing.T) {
	// Misses separated by more than the window size stall on retirement:
	// dispatch cannot run ahead more than robSize instructions.
	m := NewWindowModel(1, 4)
	// One long miss, then 10 quick instructions: instruction 5 must wait
	// for the miss to retire (in-order window of 4).
	m.Step(1, 100) // the miss retires at ~101
	for i := 0; i < 10; i++ {
		m.Step(1, 1)
	}
	if m.Cycles() < 100 {
		t.Fatalf("window did not hold back retirement: %v", m.Cycles())
	}
}

func TestWindowModelReset(t *testing.T) {
	m := DefaultWindowModel()
	m.Step(10, 200)
	m.Reset()
	if m.Cycles() != 0 || m.Instructions() != 0 || m.IPC() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestWindowModelBulkAdvanceMatchesExact(t *testing.T) {
	// The bulk fast-path for long gaps must agree closely with per-
	// instruction simulation.
	bulk := NewWindowModel(4, 128)
	bulk.Step(100_000, 200)
	exact := NewWindowModel(4, 128)
	for i := 0; i < 100_000-1; i++ {
		exact.Step(1, 1)
	}
	exact.Step(1, 200)
	rel := math.Abs(bulk.Cycles()-exact.Cycles()) / exact.Cycles()
	if rel > 0.01 {
		t.Fatalf("bulk %v vs exact %v (rel %.4f)", bulk.Cycles(), exact.Cycles(), rel)
	}
	if bulk.Instructions() != exact.Instructions() {
		t.Fatalf("instruction counts differ: %d vs %d", bulk.Instructions(), exact.Instructions())
	}
}

func TestWindowModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	NewWindowModel(0, 128)
}

func makeStream(n int, hitEvery int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		b := uint64(i)
		if i%hitEvery == 0 {
			b = 0 // block 0 recurs: a hit once warm
		}
		recs[i] = trace.Record{Gap: 4, Addr: b * 64}
	}
	return recs
}

// replayPolicy is a trivial direct-mapped-style policy for replay tests.
type replayLRU struct {
	ways   int
	stamps []uint64
	clock  uint64
}

func (p *replayLRU) Name() string { return "rlru" }
func (p *replayLRU) OnHit(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *replayLRU) OnMiss(uint32, trace.Record) {}
func (p *replayLRU) OnFill(set uint32, way int, _ trace.Record) {
	p.clock++
	p.stamps[int(set)*p.ways+way] = p.clock
}
func (p *replayLRU) OnEvict(uint32, int, trace.Record) {}
func (p *replayLRU) Victim(set uint32, _ trace.Record) int {
	base := int(set) * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.stamps[base+w] < p.stamps[base+best] {
			best = w
		}
	}
	return best
}

func TestWindowReplay(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	stream := makeStream(10000, 3)
	pol := &replayLRU{ways: 4, stamps: make([]uint64, cfg.Sets()*4)}
	res := WindowReplay(stream, cfg, pol, 1000, DefaultWindowModel())
	if res.Accesses != 9000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.Hits == 0 || res.Misses == 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	if res.Instructions != 9000*4 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.CPI <= 0 {
		t.Fatalf("CPI = %v", res.CPI)
	}
}

func TestWindowReplayFewerMissesFasterCPI(t *testing.T) {
	cfg := cache.Config{Name: "r", SizeBytes: 64 * 4 * 64, Ways: 4, BlockBytes: 64, HitLatency: 30}
	hot := makeStream(20000, 2)    // half the accesses hit block 0
	cold := makeStream(20000, 1e9) // never reuses
	mk := func() cache.Policy {
		return &replayLRU{ways: 4, stamps: make([]uint64, cfg.Sets()*4)}
	}
	rh := WindowReplay(hot, cfg, mk(), 1000, DefaultWindowModel())
	rc := WindowReplay(cold, cfg, mk(), 1000, DefaultWindowModel())
	if rh.CPI >= rc.CPI {
		t.Fatalf("hot CPI %v not below cold CPI %v", rh.CPI, rc.CPI)
	}
}

var _ cache.Policy = (*replayLRU)(nil)
