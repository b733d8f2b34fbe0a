package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The reference kernel is a fixed piece of work the load generator times
// between jobs, while the daemon is idle. A shared host's speed drifts by tens
// of percent over minutes, and a job's wall time drifts with it; a job's
// time divided by the kernel's time beside it drifts far less (see
// README.md), so every time the benchmark reports is adjusted to a fixed
// kernel time. The kernel does what the simulator does: hashing
// arithmetic, as workload generation does, and a set-associative LRU cache
// replaying a stream several times the size of the host's private caches.
// It runs one copy on every CPU at once, as the daemon's jobs fan out over
// every CPU, so that it meets the same contention. It is the benchmark's
// own code, so no change to the program can speed it up or slow it down.
// Never edit it, refNominal or refExponent: times adjusted by an edited
// kernel do not compare with earlier ones.
const (
	refSets    = 4096
	refWays    = 16
	refRecords = 1 << 20
	refMixes   = 10_000_000
)

// refNominal is the kernel time adjusted times are expressed at, about
// what the kernel took on the baseline machine when it was quiet.
// refExponent is how much more the program slows than the kernel when the
// host slows: across runs, the log of a job's time rose 1.1 to 1.6 times
// as fast as the log of the kernel's, by workload (see README.md).
const (
	refNominal  = 70 * time.Millisecond
	refExponent = 1.3
)

// adjust returns what d, timed while the kernel took ref, would have been
// on a host where the kernel takes refNominal.
func adjust(d, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * math.Pow(float64(refNominal)/float64(ref), refExponent))
}

type refKernel struct {
	stream []uint64 // byte addresses, shared by every copy
	caches []refCache
}

// refCache is one copy's simulated cache.
type refCache struct {
	tags []uint32 // refSets x refWays; 0 is an empty way
	ages []uint8  // LRU age of each way, 0 = most recent
	sink uint64
}

// kernel is the process's one reference kernel, built on first use.
var kernel = sync.OnceValue(func() *refKernel { return newRefKernel(runtime.GOMAXPROCS(0)) })

// timeKernel times the reference kernel once. The smoke test, which checks
// what a run reports rather than how fast, replaces it: under the race
// detector the kernel alone would take most of the test's time.
var timeKernel = func() time.Duration { return kernel().time() }

// newRefKernel builds a kernel of copies copies over the fixed stream:
// half streaming lines that never return, three eighths a working set a
// quarter larger than the cache, one eighth a small hot set.
func newRefKernel(copies int) *refKernel {
	k := &refKernel{stream: make([]uint64, refRecords), caches: make([]refCache, copies)}
	x, next := uint64(12345), uint64(0)
	for i := range k.stream {
		x = x*6364136223846793005 + 1442695040888963407
		switch top := x >> 61; {
		case top < 4:
			next += 64
			k.stream[i] = 1<<40 + next
		case top < 7:
			k.stream[i] = (x >> 20) % (refSets * refWays * 5 / 4) * 64
		default:
			k.stream[i] = (x >> 20) % 2048 * 64
		}
	}
	for i := range k.caches {
		k.caches[i] = refCache{tags: make([]uint32, refSets*refWays), ages: make([]uint8, refSets*refWays)}
	}
	return k
}

// time runs every copy once, at the same time and each from an empty
// cache, and returns how long the last one took to finish.
func (k *refKernel) time() time.Duration {
	for i := range k.caches {
		k.caches[i].reset()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range k.caches {
		wg.Add(1)
		go func(c *refCache) {
			defer wg.Done()
			x := uint64(1)
			for i := 0; i < refMixes; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 17
			}
			c.sink += x + uint64(c.replay(k.stream))
		}(&k.caches[i])
	}
	wg.Wait()
	return time.Since(start)
}

// reset empties the cache.
func (c *refCache) reset() {
	clear(c.tags)
	for i := range c.ages {
		c.ages[i] = uint8(i % refWays)
	}
}

// replay runs the stream through the cache and returns the hit count.
func (c *refCache) replay(stream []uint64) int {
	hits := 0
	for _, a := range stream {
		line := a >> 6
		base := int(line%refSets) * refWays
		tag := uint32(line/refSets) + 1
		tags, ages := c.tags[base:base+refWays], c.ages[base:base+refWays]
		way := -1
		for w, t := range tags {
			if t == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			for w, a := range ages {
				if a == refWays-1 {
					way = w
					break
				}
			}
			tags[way] = tag
		}
		old := ages[way]
		for w, a := range ages {
			if a < old {
				ages[w] = a + 1
			}
		}
		ages[way] = 0
	}
	return hits
}
