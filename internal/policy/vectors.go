package policy

import (
	"fmt"

	"gippr/internal/dueling"
	"gippr/internal/ipv"
	"gippr/internal/telemetry"
	"gippr/internal/trace"
)

// vectors is what GIPPR and GIPLR share: the IPV that drives insertion and
// promotion over the policy's recency state, or a power-of-two number of
// IPVs duelling over that one state (paper Section 3.5). Switching vectors
// never touches the recency bits; each set only reads the vector the duel
// chooses for it.
type vectors struct {
	nop
	name        string
	one         ipv.Vector // the vector when there is no duel (vecs[0])
	vecs        []ipv.Vector
	duel        *dueling.Duel // nil with one vector
	counterBits int
	tel         *telemetry.Sink
}

// newVectors checks the geometry and the vectors and clones them. With one
// vector the policy is named kind plus the vector; with n it is "n-D"+kind
// and the vectors duel through the customary leader sets and the paper's
// 11-bit counters.
func newVectors(kind string, sets, ways int, vecs []ipv.Vector) vectors {
	validateGeometry(sets, ways)
	n := len(vecs)
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("policy: %s needs 1 or a power-of-two number of vectors, got %d", kind, n))
	}
	s := vectors{vecs: make([]ipv.Vector, n), counterBits: dueling.CounterBits11}
	for i, v := range vecs {
		if err := v.Validate(); err != nil {
			panic(err)
		}
		if v.K() != ways {
			panic(fmt.Sprintf("policy: %s vector associativity %d, want %d", kind, v.K(), ways))
		}
		s.vecs[i] = v.Clone()
	}
	s.one = s.vecs[0]
	if n == 1 {
		s.name = kind + s.one.String()
		return s
	}
	s.name = fmt.Sprintf("%d-D%s", n, kind)
	s.duel = dueling.NewDuel(sets, n, leadersFor(sets, n), s.counterBits)
	return s
}

// vec returns the vector set uses right now: the vector, or the one the
// duel chooses for the set. It and Duel.Choose are small enough to inline
// into every OnHit and OnFill, so the L1/L2 capture's LRU pays one nil
// check for the option of a duel.
func (s *vectors) vec(set uint32) ipv.Vector {
	if s.duel == nil {
		return s.one
	}
	return s.vecs[s.duel.Choose(set)]
}

// Name implements cache.Policy.
func (s *vectors) Name() string { return s.name }

// SetName overrides the report name (e.g. "WN1-GIPPR").
func (s *vectors) SetName(n string) { s.name = n }

// Vector returns the IPV in use; with a duel, the first vector.
func (s *vectors) Vector() ipv.Vector { return s.one.Clone() }

// SetTelemetry implements cache.Instrumented.
func (s *vectors) SetTelemetry(t *telemetry.Sink) { s.tel = t }

// OnMiss implements cache.Policy: a leader-set miss votes against its
// vector and trains the duel.
func (s *vectors) OnMiss(set uint32, _ trace.Record) {
	if s.duel == nil {
		return
	}
	if s.tel != nil {
		s.tel.Vote(s.duel.Leader(set))
	}
	s.duel.OnMiss(set)
}

// Winner returns the vector index follower sets currently use (0 without a
// duel).
func (s *vectors) Winner() int {
	if s.duel == nil {
		return 0
	}
	return s.duel.Winner()
}

// globalBits is the duel's storage: n-1 counters for n vectors.
func (s *vectors) globalBits() int { return (len(s.vecs) - 1) * s.counterBits }
