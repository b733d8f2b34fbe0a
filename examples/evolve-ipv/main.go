// Evolve an insertion/promotion vector for your own workload mix with the
// paper's genetic algorithm (Section 4), then verify the evolved vector
// against LRU, PLRU and the paper's published vector.
//
// Run with: go run ./examples/evolve-ipv
package main

import (
	"fmt"
	"log"

	"gippr"
)

// captureStream records the LLC-visible access stream of one workload
// phase (the GA's fitness input).
func captureStream(sess *gippr.Session, name string, seed uint64, records int) gippr.EvolveStream {
	w, err := gippr.WorkloadByName(name)
	if err != nil {
		log.Fatal(err)
	}
	h := sess.Hierarchy(gippr.NewLRU(sess.Config().Sets(), sess.Config().Ways))
	h.RecordLLC = true
	src := w.Phases[0].Source(seed)
	for i := 0; i < records; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		h.Access(rec)
	}
	return gippr.EvolveStream{Workload: name, Weight: 1, Records: h.LLCStream}
}

func main() {
	// A deliberately mixed training set: one thrasher, one LRU-friendly
	// workload, one streaming workload.
	fmt.Println("capturing LLC streams for the training mix...")
	sess, err := gippr.New(gippr.LLCConfig())
	if err != nil {
		log.Fatal(err)
	}
	streams := []gippr.EvolveStream{
		captureStream(sess, "cactusADM_like", 11, 200_000),
		captureStream(sess, "dealII_like", 22, 200_000),
		captureStream(sess, "lbm_like", 33, 200_000),
	}
	env, err := sess.EvolveEnv(1.0/3, streams)
	if err != nil {
		log.Fatal(err)
	}

	cfg := gippr.DefaultEvolveConfig(0xbee)
	cfg.Population = 16
	cfg.Generations = 8
	cfg.Seeds = []gippr.IPV{gippr.LRUVector(16), gippr.LIPVector(16)}

	fmt.Printf("evolving (population %d, %d generations)...\n", cfg.Population, cfg.Generations)
	best, fitness, history := gippr.Evolve(env, cfg)
	fmt.Printf("\nbest vector: %v\n", best)
	fmt.Printf("fitness (estimated mean speedup over LRU): %.4f\n", fitness)
	fmt.Printf("per-generation best: ")
	for _, f := range history {
		fmt.Printf("%.4f ", f)
	}
	fmt.Println()

	// Sanity-check the evolved vector with real replays.
	fmt.Printf("\n%-18s %12s %12s %12s %14s\n", "workload", "LRU misses", "PLRU misses", "evolved", "paper WI-GIPPR")
	cfg3 := gippr.LLCConfig()
	for _, s := range streams {
		warm := len(s.Records) / 3
		lru := gippr.ReplayStream(s.Records, cfg3, gippr.NewLRU(cfg3.Sets(), cfg3.Ways), warm)
		plru := gippr.ReplayStream(s.Records, cfg3, gippr.NewPLRU(cfg3.Sets(), cfg3.Ways), warm)
		ev := gippr.ReplayStream(s.Records, cfg3, gippr.NewGIPPR(cfg3.Sets(), cfg3.Ways, best), warm)
		pap := gippr.ReplayStream(s.Records, cfg3, gippr.NewGIPPR(cfg3.Sets(), cfg3.Ways, gippr.PaperWIGIPPR), warm)
		fmt.Printf("%-18s %12d %12d %12d %14d\n", s.Workload, lru.Misses, plru.Misses, ev.Misses, pap.Misses)
	}
}
