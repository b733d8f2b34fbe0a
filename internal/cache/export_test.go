package cache

// NewFresh is New on newly allocated arrays, never a recycled store: the
// reference side of the pool's differential test.
func NewFresh(cfg Config, pol Policy) *Cache { return newCache(cfg, pol, storeShape.alloc) }

// Release hands c's tag store back to the pool, as ReplayFresh does after
// its walk.
func (c *Cache) Release() { c.release() }

// Store returns c's tag store: its tags, valid words, dirty words and
// signature words.
func (c *Cache) Store() [4][]uint64 { return [4][]uint64{c.tags, c.valid, c.dirty, c.sig} }
