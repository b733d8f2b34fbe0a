package experiments

import "sync"

// memo is the Lab's one memoization table: a concurrent map from key to a
// lazily computed value. It keeps three rules:
//
//   - a key is computed exactly once, whether by get or inside a batch;
//   - concurrent readers of a key wait for that one computation;
//   - a computation that panics leaves its keys unsettled, so the next
//     reader computes them afresh (a sync.Once would count the panic as
//     done and hand out zero values forever).
//
// Each entry carries its own mutex, held for the whole computation. get
// takes it with Lock, so a reader waits for a computation under way. batch
// takes it with TryLock, so a batch skips the keys another goroutine is
// computing instead of waiting while it holds claims of its own; two
// batches therefore never wait on each other. The table lock guards only
// the key lookup, never a computation. The zero memo is ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	mu   sync.Mutex // held while the value is computed
	done bool
	val  V
}

// entry returns key's entry, creating it unsettled if absent.
func (m *memo[V]) entry(key string) *memoEntry[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[key]
	if !ok {
		if m.m == nil {
			m.m = make(map[string]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.m[key] = e
	}
	return e
}

// get returns key's value, computing it unless it is settled.
func (m *memo[V]) get(key string, compute func() V) V {
	e := m.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val, e.done = compute(), true
	}
	return e.val
}

// batch settles, with one call to compute, the value of every item whose
// key is neither settled nor held by another goroutine. compute receives
// the claimed items in their input order and returns their values in that
// order. A repeated key is claimed once. Skipped keys are settled or being
// settled elsewhere; a later get waits for them.
func batch[T, V any](m *memo[V], items []T, key func(T) string, compute func(claimed []T) []V) {
	var claimed []T
	var es []*memoEntry[V]
	defer func() {
		for _, e := range es {
			e.mu.Unlock()
		}
	}()
	for _, it := range items {
		e := m.entry(key(it))
		if !e.mu.TryLock() {
			continue
		}
		if e.done {
			e.mu.Unlock()
			continue
		}
		claimed = append(claimed, it)
		es = append(es, e)
	}
	if len(claimed) == 0 {
		return
	}
	for i, v := range compute(claimed) {
		es[i].val, es[i].done = v, true
	}
}
