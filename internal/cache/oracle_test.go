package cache_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// maxWays is the largest associativity the oracle checks.
const maxWays = 16

// access is one cache access of a stream.
type access struct {
	addr  uint32
	write bool
}

// stackMisses is the analytic oracle: one pass over stream computes each
// access's LRU stack distance within its set (how many distinct blocks of
// that set were touched since the block's last use). A true-LRU cache with
// w ways and write-allocate misses exactly on the accesses whose distance
// is w or more, first touches included, so misses[w] for every w in
// 1..maxWays falls out of one histogram. It shares no code with
// internal/cache: sets come from the block address modulo the set count.
func stackMisses(stream []access, sets, block int) [maxWays + 1]uint64 {
	stacks := make([][]uint32, sets) // most recently used block first, at most maxWays deep
	var far uint64                   // accesses at distance maxWays or more
	var hist [maxWays]uint64
	for _, a := range stream {
		blk := a.addr / uint32(block)
		st := stacks[blk%uint32(sets)]
		d := len(st)
		for i, b := range st {
			if b == blk {
				d = i
				break
			}
		}
		if d < len(st) {
			hist[d]++
			copy(st[1:d+1], st[:d])
		} else {
			far++
			if len(st) < maxWays {
				st = append(st, 0)
			}
			copy(st[1:], st[:len(st)-1])
		}
		st[0] = blk
		stacks[blk%uint32(sets)] = st
	}
	var misses [maxWays + 1]uint64
	for w := maxWays; w >= 1; w-- {
		misses[w] = far
		for d := w; d < maxWays; d++ {
			misses[w] += hist[d]
		}
	}
	return misses
}

// seededStream mixes sequential runs, strided walks, a hot working set and
// scattered accesses, so every associativity sees both hits and misses.
func seededStream(seed int64, n int) []access {
	rng := rand.New(rand.NewSource(seed))
	var out []access
	addr := uint32(rng.Intn(1 << 20))
	for len(out) < n {
		switch rng.Intn(4) {
		case 0: // sequential run
			for i := 0; i < 1+rng.Intn(64); i++ {
				addr += 4
				out = append(out, access{addr, rng.Intn(4) == 0})
			}
		case 1: // strided walk
			stride := uint32(64 << rng.Intn(6))
			for i := 0; i < 1+rng.Intn(32); i++ {
				addr += stride
				out = append(out, access{addr, rng.Intn(4) == 0})
			}
		case 2: // hot working set
			out = append(out, access{uint32(rng.Intn(8 << 10)), rng.Intn(4) == 0})
		default: // scattered
			addr = uint32(rng.Intn(1 << 24))
			out = append(out, access{addr, rng.Intn(4) == 0})
		}
	}
	return out[:n]
}

// profileStream is the correct-path data addresses of n instructions of
// the named workload profile.
func profileStream(t *testing.T, name string, n uint64) []access {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := funcsim.NewMachine(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := funcsim.NewSource(m, funcsim.TraceConfig{PerfectBP: true}, n)
	var out []access
	for {
		r, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind == trace.KindMem {
			out = append(out, access{r.Addr, r.Store})
		}
	}
}

// TestCacheMatchesStackDistanceOracle: cache.Cache's miss count equals the
// oracle's for 1 to 16 ways at several set counts, over seeded streams and
// every profile's data addresses.
func TestCacheMatchesStackDistanceOracle(t *testing.T) {
	streams := map[string][]access{}
	for seed := int64(1); seed <= 3; seed++ {
		streams[fmt.Sprintf("seed%d", seed)] = seededStream(seed, 20_000)
	}
	for _, name := range workload.Names() {
		streams[name] = profileStream(t, name, 30_000)
	}
	const block = 32
	for name, stream := range streams {
		for _, sets := range []int{1, 8, 64, 256} {
			want := stackMisses(stream, sets, block)
			for ways := 1; ways <= maxWays; ways++ {
				c := cache.New(cache.Config{Name: "oracle", SizeBytes: sets * ways * block, Assoc: ways,
					BlockBytes: block, HitLatency: 1, MissLatency: 10})
				for _, a := range stream {
					c.Access(a.addr, a.write)
				}
				if got := c.Stats().Misses(); got != want[ways] {
					t.Errorf("%s, %d sets x %d ways: cache missed %d of %d, oracle %d",
						name, sets, ways, got, len(stream), want[ways])
				}
			}
		}
	}
}
