package ga

import (
	"context"
	"errors"
	"testing"

	"gippr/internal/ipv"
)

// The parallel-engine contract: worker count changes scheduling, never
// arithmetic. Every entry point must return bit-identical results at any
// Workers value. Run with -race to additionally prove the fan-outs are
// data-race-free.

func TestPerStreamBitIdenticalAcrossWorkers(t *testing.T) {
	serial := testEnv(t).SetWorkers(1)
	par := testEnv(t).SetWorkers(8)
	for _, v := range []ipv.Vector{ipv.LRU(16), ipv.LIP(16), ipv.PaperWIGIPPR} {
		a, b := serial.PerStream(v), par.PerStream(v)
		if len(a) != len(b) {
			t.Fatalf("length mismatch %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vector %v stream %d: serial %v != parallel %v", v, i, a[i], b[i])
			}
		}
		if serial.Fitness(v) != par.Fitness(v) {
			t.Fatalf("vector %v: fitness differs across worker counts", v)
		}
	}
}

func TestRandomSearchBitIdenticalAcrossWorkers(t *testing.T) {
	serial, errS := RandomSearch(context.Background(), testEnv(t).SetWorkers(1), 24, 0xabc, nil)
	par, errP := RandomSearch(context.Background(), testEnv(t).SetWorkers(8), 24, 0xabc, nil)
	if err := errors.Join(errS, errP); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Fitness != par[i].Fitness || !serial[i].Vector.Equal(par[i].Vector) {
			t.Fatalf("sample %d: serial (%v, %v) != parallel (%v, %v)",
				i, serial[i].Vector, serial[i].Fitness, par[i].Vector, par[i].Fitness)
		}
	}
}

func TestEvolveBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Population = 8
	cfg.Generations = 3
	cfg.Seeds = []ipv.Vector{ipv.LRU(16), ipv.LIP(16)}

	bestS, fitS, histS, errS := Evolve(context.Background(), testEnv(t).SetWorkers(1), cfg)
	bestP, fitP, histP, errP := Evolve(context.Background(), testEnv(t).SetWorkers(8), cfg)
	if err := errors.Join(errS, errP); err != nil {
		t.Fatal(err)
	}
	if !bestS.Equal(bestP) || fitS != fitP {
		t.Fatalf("serial (%v, %v) != parallel (%v, %v)", bestS, fitS, bestP, fitP)
	}
	for i := range histS {
		if histS[i] != histP[i] {
			t.Fatalf("generation %d: history %v != %v", i, histS[i], histP[i])
		}
	}
}

func TestSelectComplementaryBitIdenticalAcrossWorkers(t *testing.T) {
	pool := []ipv.Vector{ipv.LRU(16), ipv.LIP(16), ipv.PaperWIGIPPR, ipv.PaperWI4DGIPPR[0]}
	a, errA := SelectComplementary(context.Background(), testEnv(t).SetWorkers(1), pool, 2)
	b, errB := SelectComplementary(context.Background(), testEnv(t).SetWorkers(8), pool, 2)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("choice %d: %v != %v", i, a[i], b[i])
		}
	}
}

func TestSubsetInheritsBaselinesAndWorkers(t *testing.T) {
	e := testEnv(t).SetWorkers(3)
	sub := e.Subset(func(w string) bool { return w == "thrash" })
	if sub.Workers != 3 {
		t.Fatalf("subset workers = %d", sub.Workers)
	}
	if len(sub.baselines()) != 1 {
		t.Fatalf("subset baselines = %d", len(sub.baselines()))
	}
	if sub.baselines()[0] != e.baselines()[0] {
		t.Fatal("subset did not inherit the parent's precomputed baseline")
	}
}
