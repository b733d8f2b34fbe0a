package experiments

import "sync"

// memo is the Lab's one memoization table: a concurrent map from key to a
// lazily computed value. It keeps three rules:
//
//   - a key is computed exactly once;
//   - concurrent readers of a key wait for that one computation;
//   - a computation that panics leaves its key unsettled, so the next
//     reader computes it afresh (a sync.Once would count the panic as
//     done and hand out zero values forever).
//
// Each entry carries its own mutex, held for the whole computation, so a
// reader of a key waits for a computation under way while readers of other
// keys proceed. The table lock guards only the key lookup, never a
// computation. The zero memo is ready to use.
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
