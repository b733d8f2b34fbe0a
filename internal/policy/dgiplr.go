package policy

import (
	"gippr/internal/cache"
	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/recency"
	"gippr/internal/trace"
)

// DGIPLR2 is the true-LRU counterpart of DGIPPR2 — the paper's future-work
// item 5 ("the full LRU version of the technique also deserves further
// study"): two IPVs duelling over full recency stacks. It costs k*log2(k)
// bits per set (4x GIPPR at 16 ways) and exists to quantify what, if
// anything, exact recency buys over the tree approximation
// (BenchmarkAblationTreeVsTrueLRU).
type DGIPLR2 struct {
	nop
	vecs [2]ipv.Vector
	rec  recency.Lanes
	duel *dueling.Duel
}

// NewDGIPLR2 returns a 2-vector dynamic GIPLR.
func NewDGIPLR2(sets, ways int, vecs [2]ipv.Vector) *DGIPLR2 {
	validateGeometry(sets, ways)
	for _, v := range vecs {
		if err := v.Validate(); err != nil {
			panic(err)
		}
		if v.K() != ways {
			panic("policy: DGIPLR2 vector associativity mismatch")
		}
	}
	return &DGIPLR2{
		vecs: [2]ipv.Vector{vecs[0].Clone(), vecs[1].Clone()},
		rec:  recency.New(sets, ways),
		duel: dueling.NewDuel(sets, leadersFor(sets, 2), dueling.CounterBits11),
	}
}

// Name implements cache.Policy.
func (p *DGIPLR2) Name() string { return "2-DGIPLR" }

// OnMiss implements cache.Policy.
func (p *DGIPLR2) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// OnHit implements cache.Policy.
func (p *DGIPLR2) OnHit(set uint32, way int, _ trace.Record) {
	p.rec.MoveTo(set, way, p.vecs[p.duel.Choose(set)].Promotion(p.rec.Position(set, way)))
}

// Victim implements cache.Policy.
func (p *DGIPLR2) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy.
func (p *DGIPLR2) OnFill(set uint32, way int, _ trace.Record) {
	p.rec.MoveTo(set, way, p.vecs[p.duel.Choose(set)].Insertion())
}

// OverheadBits implements Overheader.
func (p *DGIPLR2) OverheadBits() (float64, int) {
	return stackBits(p.rec.Ways()), dueling.CounterBits11
}

// DGIPLR4 is the four-vector true-LRU variant, the DGIPPR4 counterpart.
type DGIPLR4 struct {
	nop
	vecs [4]ipv.Vector
	rec  recency.Lanes
	duel *dueling.Tournament
}

// NewDGIPLR4 returns a 4-vector dynamic GIPLR.
func NewDGIPLR4(sets, ways int, vecs [4]ipv.Vector) *DGIPLR4 {
	validateGeometry(sets, ways)
	for _, v := range vecs {
		if err := v.Validate(); err != nil {
			panic(err)
		}
		if v.K() != ways {
			panic("policy: DGIPLR4 vector associativity mismatch")
		}
	}
	p := &DGIPLR4{
		rec:  recency.New(sets, ways),
		duel: dueling.NewTournament(sets, leadersFor(sets, 4), dueling.CounterBits11),
	}
	for i, v := range vecs {
		p.vecs[i] = v.Clone()
	}
	return p
}

// Name implements cache.Policy.
func (p *DGIPLR4) Name() string { return "4-DGIPLR" }

// OnMiss implements cache.Policy.
func (p *DGIPLR4) OnMiss(set uint32, _ trace.Record) { p.duel.OnMiss(set) }

// OnHit implements cache.Policy.
func (p *DGIPLR4) OnHit(set uint32, way int, _ trace.Record) {
	p.rec.MoveTo(set, way, p.vecs[p.duel.Choose(set)].Promotion(p.rec.Position(set, way)))
}

// Victim implements cache.Policy.
func (p *DGIPLR4) Victim(set uint32, _ trace.Record) int { return p.rec.Victim(set) }

// OnFill implements cache.Policy.
func (p *DGIPLR4) OnFill(set uint32, way int, _ trace.Record) {
	p.rec.MoveTo(set, way, p.vecs[p.duel.Choose(set)].Insertion())
}

// OverheadBits implements Overheader.
func (p *DGIPLR4) OverheadBits() (float64, int) {
	return stackBits(p.rec.Ways()), 3 * dueling.CounterBits11
}

var (
	_ cache.Policy = (*DGIPLR2)(nil)
	_ cache.Policy = (*DGIPLR4)(nil)
	_ Overheader   = (*DGIPLR2)(nil)
	_ Overheader   = (*DGIPLR4)(nil)
)
