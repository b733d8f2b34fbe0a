// Package ipv implements insertion/promotion vectors (IPVs), the central
// abstraction of the paper (Section 2.3).
//
// For a k-way set-associative cache an IPV is a vector V[0..k] of k+1
// integers, each in 0..k-1, interpreted against a recency stack with the MRU
// block at position 0 and the LRU block at position k-1:
//
//   - V[i] for i < k is the new position a block in position i moves to when
//     it is re-referenced (a promotion — or a demotion, nothing forces
//     V[i] <= i);
//   - V[k] is the position at which an incoming block is inserted on a miss.
//
// Classic policies are points in this space: LRU is [0,0,...,0,0], LRU
// insertion (LIP, Qureshi et al.) is [0,0,...,0,k-1]. The paper searches this
// k^(k+1) design space with a genetic algorithm. This package provides the
// vector type itself, validation, the named vectors published in the paper,
// the MRU-reachability (degeneracy) test of footnote 1, and transition-graph
// construction/DOT export used to regenerate Figures 2 and 3.
package ipv

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadVector is the sentinel wrapped by every vector validation or parse
// failure, so callers can branch with errors.Is instead of string matching
// (the cmd tools map it to their usage exit code, the job service to
// 400 Bad Request).
var ErrBadVector = errors.New("ipv: bad vector")

// Vector is an insertion/promotion vector for a k-way cache: k promotion
// entries followed by one insertion entry, so len(Vector) == k+1.
type Vector []int

// New returns the vector for a k-way cache with all entries zero, i.e. the
// classic LRU policy (promote to MRU, insert at MRU).
func New(k int) Vector {
	if k < 2 {
		panic("ipv: associativity must be at least 2")
	}
	return make(Vector, k+1)
}

// LRU returns the classic LRU vector [0,0,...,0] for a k-way cache.
func LRU(k int) Vector { return New(k) }

// LIP returns the LRU-insertion vector [0,...,0,k-1] (Qureshi et al.'s LIP):
// hits promote to MRU but incoming blocks are inserted at the LRU position.
func LIP(k int) Vector {
	v := New(k)
	v[k] = k - 1
	return v
}

// MidClimb returns the three-step example from Section 2.4:
// insert at LRU, first re-reference promotes to the middle of the stack,
// second re-reference promotes to MRU.
func MidClimb(k int) Vector {
	v := New(k)
	v[k] = k - 1   // insert at LRU
	v[k-1] = k / 2 // referenced at LRU -> middle
	v[k/2] = 0     // referenced at middle -> MRU
	return v
}

// MultiStep returns the multi-step LRU vector for a k-way cache, the IPV
// form of Inoue's multi-step promotion (arXiv:2112.09981): the recency stack
// is divided into step equal segments of k/step positions, a re-referenced
// block climbs to the top of its own segment — or, from a segment top, to
// the top of the segment above — and incoming blocks insert at MRU. A block
// at the LRU position thus reaches MRU after exactly step re-references
// (step-1 in the fully incremental step == k case, where the LRU position is
// already a segment top). step must divide k.
// The family interpolates between classic LRU (step == 1, one segment, every
// hit promotes straight to MRU) and fully incremental promotion (step == k,
// every hit climbs a single position).
func MultiStep(k, step int) Vector {
	v := New(k)
	if step < 1 || step > k || k%step != 0 {
		panic(fmt.Sprintf("ipv: multi-step count %d must divide associativity %d", step, k))
	}
	seg := k / step
	for i := 1; i < k; i++ {
		v[i] = (i - 1) / seg * seg
	}
	return v
}

// K returns the associativity this vector is for.
func (v Vector) K() int { return len(v) - 1 }

// Insertion returns the insertion position V[k].
func (v Vector) Insertion() int { return v[len(v)-1] }

// Promotion returns the promotion target V[i] for a block referenced at
// position i.
func (v Vector) Promotion(i int) int { return v[i] }

// Validate checks that the vector is well-formed: at least 3 entries
// (2-way minimum) and every entry in 0..k-1.
func (v Vector) Validate() error {
	k := v.K()
	if k < 2 {
		return fmt.Errorf("%w: length %d is too short (need k+1 entries, k >= 2)", ErrBadVector, len(v))
	}
	for i, e := range v {
		if e < 0 || e >= k {
			return fmt.Errorf("%w: entry %d is %d, outside 0..%d", ErrBadVector, i, e, k-1)
		}
	}
	return nil
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Equal reports whether v and w are element-wise identical.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ScaleTo adapts a vector to a k-way cache by scaling each entry
// proportionally, so vectors published for 16 ways remain usable on other
// geometries (tests exercise 4- and 8-way caches). A vector already for k
// ways is returned unchanged.
func (v Vector) ScaleTo(k int) Vector {
	if v.K() == k {
		return v
	}
	out := make(Vector, k+1)
	for i := range out {
		src := i * v.K() / k
		if i == k {
			src = v.K()
		}
		out[i] = v[src] * k / v.K()
		if out[i] >= k {
			out[i] = k - 1
		}
	}
	return out
}

// String renders the vector in the paper's bracketed form,
// e.g. "[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteString("[")
	for _, e := range v {
		fmt.Fprintf(&sb, " %d", e)
	}
	sb.WriteString(" ]")
	return sb.String()
}

// Parse parses a vector from a whitespace- or comma-separated list of
// integers, optionally surrounded by brackets, and validates it.
func Parse(s string) (Vector, error) {
	s = strings.NewReplacer("[", " ", "]", " ", ",", " ").Replace(s)
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: empty vector", ErrBadVector)
	}
	v := make(Vector, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%w: bad entry %q: %v", ErrBadVector, f, err)
		}
		v[i] = n
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// MustParse is Parse that panics on error; for package-level constants.
func MustParse(s string) Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsLRU reports whether v is exactly the classic LRU vector.
func (v Vector) IsLRU() bool {
	for _, e := range v {
		if e != 0 {
			return false
		}
	}
	return true
}

// ReachesMRU implements the degeneracy test of the paper's footnote 1: it
// reports whether, under true-LRU stack semantics, a block inserted at V[k]
// can ever reach the MRU position (position 0) through some sequence of
// re-references and shifts caused by other blocks' movements.
//
// The induced graph on positions 0..k-1 has three kinds of edges:
//
//   - access edges i -> V[i];
//   - shift-down edges j -> j+1, present when some promotion V[i] (i > j,
//     V[i] <= j) or the insertion (V[k] <= j, j < k-1) can push the block at
//     j down one position;
//   - shift-up edges j -> j-1, present when some demotion V[i] with i < j
//     and V[i] >= j can pull the block at j up one position.
//
// A vector failing this test can never promote any block to MRU and is
// excluded from genetic search seeding (it is still a legal vector).
func (v Vector) ReachesMRU() bool {
	k := v.K()
	down := make([]bool, k) // down[j]: edge j -> j+1 exists
	up := make([]bool, k)   // up[j]:   edge j -> j-1 exists
	for i := 0; i < k; i++ {
		t := v[i]
		if t < i { // promotion: blocks in [t, i-1] shift down
			for j := t; j < i; j++ {
				down[j] = true
			}
		} else if t > i { // demotion: blocks in [i+1, t] shift up
			for j := i + 1; j <= t; j++ {
				up[j] = true
			}
		}
	}
	// Insertion pushes blocks in [V[k], k-2] down by one.
	for j := v[k]; j < k-1; j++ {
		down[j] = true
	}
	// BFS from the insertion position to position 0.
	visited := make([]bool, k)
	queue := []int{v[k]}
	visited[v[k]] = true
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p == 0 {
			return true
		}
		next := []int{v[p]}
		if down[p] && p+1 < k {
			next = append(next, p+1)
		}
		if up[p] && p-1 >= 0 {
			next = append(next, p-1)
		}
		for _, n := range next {
			if !visited[n] {
				visited[n] = true
				queue = append(queue, n)
			}
		}
	}
	return false
}
