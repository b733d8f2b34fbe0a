package cpu

import (
	"math"
	"reflect"
	"testing"

	"gippr/internal/cache"
	"gippr/internal/trace"
	"gippr/internal/xrand"
)

// refWindow is the window model as it ran before it kept time in integer
// ticks: a float64 clock in cycles and one instr call per simulated
// instruction, with plain branches. It is kept, unoptimised, as the
// reference WindowModel must match bit for bit at every power-of-two width.
type refWindow struct {
	width      float64
	robSize    int
	retire     []float64
	head       int
	prevRetire float64
	clock      float64
	instrs     uint64
	memReady   float64
}

func newRefWindow(width, robSize int) *refWindow {
	return &refWindow{width: float64(width), robSize: robSize, retire: make([]float64, robSize)}
}

func (m *refWindow) instr(latency float64, mem bool) {
	d := m.clock
	if r := m.retire[m.head]; r > d {
		d = r // window full: wait for the oldest in-window instruction
	}
	start := d
	if mem {
		if m.memReady > start {
			start = m.memReady
		}
		m.memReady = start + memInterval
	}
	c := start + latency
	if c < m.prevRetire {
		c = m.prevRetire // in-order retirement
	}
	m.retire[m.head] = c
	m.head++
	if m.head == m.robSize {
		m.head = 0
	}
	m.prevRetire = c
	m.clock = d + 1/m.width
	m.instrs++
}

func (m *refWindow) bulkNonMem(nonMem int) int {
	if nonMem <= 2*m.robSize {
		return nonMem
	}
	skip := nonMem - m.robSize
	byWidth := m.clock + float64(skip)/m.width
	byDrain := m.prevRetire + float64(skip-m.robSize)/m.width
	if byDrain > byWidth {
		byWidth = byDrain
	}
	m.clock = byWidth
	if m.prevRetire < m.clock {
		m.prevRetire = m.clock
	}
	m.instrs += uint64(skip)
	return m.robSize
}

func (m *refWindow) step(gap uint32, latency int, mem bool) {
	nonMem := m.bulkNonMem(int(gap) - 1)
	for i := 0; i < nonMem; i++ {
		m.instr(1, false)
	}
	m.instr(float64(latency), mem)
}

func (m *refWindow) Cycles() float64 { return m.prevRetire }

func (m *refWindow) IPC() float64 {
	if m.prevRetire == 0 {
		return 0
	}
	return float64(m.instrs) / m.prevRetire
}

// windowBlock is one block of LLC records as MultiWindowReplay hands it to
// a window model: the records' gaps, the engine's hit bits, and the
// latencies of a hit and of a miss.
type windowBlock struct {
	recs            []trace.Record
	hits            cache.HitBits
	hitLat, missLat int
}

// checkWindowAgrees fails unless m reports the same Cycles, Instructions
// and IPC bits as ref.
func checkWindowAgrees(t *testing.T, path string, width, rob, block, rec int, m *WindowModel, ref *refWindow) {
	t.Helper()
	if math.Float64bits(m.Cycles()) != math.Float64bits(ref.Cycles()) || m.Instructions() != ref.instrs ||
		math.Float64bits(m.IPC()) != math.Float64bits(ref.IPC()) {
		t.Fatalf("width %d rob %d block %d record %d, %s: cycles %v instrs %d IPC %v; reference cycles %v instrs %d IPC %v",
			width, rob, block, rec, path, m.Cycles(), m.Instructions(), m.IPC(), ref.Cycles(), ref.instrs, ref.IPC())
	}
}

// checkWindowDifferential steps three models through blocks. The float64
// reference and a WindowModel take one record at a time, a hit through Step
// and a miss through StepMiss, and must agree bit for bit after every
// record. A second WindowModel takes one stepBlock call per block and must
// agree with both after every block, down to its internal state.
func checkWindowDifferential(t *testing.T, width, rob int, blocks []windowBlock) {
	t.Helper()
	ref := newRefWindow(width, rob)
	each := NewWindowModel(width, rob)
	block := NewWindowModel(width, rob)
	for b := range blocks {
		blk := &blocks[b]
		for j, r := range blk.recs {
			if blk.hits.Bit(j) {
				each.Step(r.Gap, blk.hitLat)
				ref.step(r.Gap, blk.hitLat, false)
			} else {
				each.StepMiss(r.Gap, blk.missLat)
				ref.step(r.Gap, blk.missLat, true)
			}
			checkWindowAgrees(t, "Step/StepMiss", width, rob, b, j, each, ref)
		}
		block.stepBlock(blk.recs, &blk.hits, blk.hitLat, blk.missLat)
		checkWindowAgrees(t, "stepBlock", width, rob, b, len(blk.recs)-1, block, ref)
		if !reflect.DeepEqual(block, each) {
			t.Fatalf("width %d rob %d block %d: stepBlock state %+v, per-record state %+v", width, rob, b, block, each)
		}
	}
}

// TestWindowModelMatchesReference pins the tick model to the float64
// reference at every power-of-two width it is exact for, at window sizes
// from one entry up to the paper's 128, over random hit/miss blocks at
// latencies 1, 30 and 230. Most gaps are the short ones of real LLC
// streams; the rest are 0, 1, 2, 2*rob and 2*rob+1 (the longest gaps
// simulated instruction by instruction), 2*rob+2 (the shortest the bulk
// path fast-forwards), and gaps near 2^31, the capture's clamp.
func TestWindowModelMatchesReference(t *testing.T) {
	lats := []int{1, 30, 230}
	for _, width := range []int{1, 2, 4, 8} {
		for _, rob := range []int{1, 3, 4, 128} {
			rng := xrand.New(uint64(width)<<8 | uint64(rob))
			edges := []uint32{0, 1, 2, uint32(2 * rob), uint32(2*rob + 1), uint32(2*rob + 2), 1<<31 - 1, 1 << 31}
			blocks := make([]windowBlock, 40)
			for b := range blocks {
				blk := &blocks[b]
				blk.recs = make([]trace.Record, 1+rng.Intn(cache.BlockSize))
				blk.hitLat, blk.missLat = lats[rng.Intn(len(lats))], lats[rng.Intn(len(lats))]
				for j := range blk.recs {
					gap := uint32(1 + rng.Intn(12))
					if rng.OneIn(8) {
						gap = edges[rng.Intn(len(edges))]
					}
					blk.recs[j].Gap = gap
					if rng.OneIn(2) {
						blk.hits[j>>6] |= 1 << (j & 63)
					}
				}
			}
			checkWindowDifferential(t, width, rob, blocks)
		}
	}
}

// FuzzWindowModel runs checkWindowDifferential on fuzzed records. data[0]
// picks the width (bits 0-1) and the window size (bits 2-3). Each further
// byte pair is one record: the first byte's low three bits pick a gap class
// (short, 2*rob-1 to 2*rob+2 around the bulk path's threshold, near 2^31,
// or long) and its high five bits the value within it; the second byte's bit 0 is the hit bit and bit
// 1 ends the block, and a block's first record picks the block's hit and
// miss latencies from bits 2-3 and 4-5.
func FuzzWindowModel(f *testing.F) {
	f.Add([]byte{0x02, 0x28, 0x01, 0x0d, 0x20, 0x05, 0x03})
	f.Add([]byte{0x0e, 0x0f, 0x10, 0x2e, 0x03, 0x16, 0x00, 0x0c, 0x01})
	f.Add([]byte{0x0b, 0x07, 0x00, 0x06, 0x35, 0x01, 0x02, 0x08, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4097 {
			return
		}
		width, rob := []int{1, 2, 4, 8}[data[0]&3], []int{1, 3, 4, 128}[data[0]>>2&3]
		lats := []int{1, 30, 230}
		var blocks []windowBlock
		var blk windowBlock
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			g, c := data[0], data[1]
			if len(blk.recs) == 0 {
				blk.hitLat, blk.missLat = lats[c>>2&3%3], lats[c>>4&3%3]
			}
			v := uint32(g >> 3)
			gap := v
			switch g & 7 {
			case 5:
				gap = uint32(2*rob) - 1 + v%4
			case 6:
				gap = 1<<31 - 1 + v%3
			case 7:
				gap = v << 6
			}
			j := len(blk.recs)
			blk.recs = append(blk.recs, trace.Record{Gap: gap})
			blk.hits[j>>6] |= uint64(c&1) << (j & 63)
			if c&2 != 0 || len(blk.recs) == cache.BlockSize {
				blocks = append(blocks, blk)
				blk = windowBlock{}
			}
		}
		if len(blk.recs) > 0 {
			blocks = append(blocks, blk)
		}
		checkWindowDifferential(t, width, rob, blocks)
	})
}
