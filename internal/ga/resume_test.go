package ga

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"gippr/internal/checkpoint"
	"gippr/internal/ipv"
)

// resumeCfg is a run long enough that cancelling at generation 2 leaves
// real work to redo on resume.
func resumeCfg(workers int) Config {
	cfg := DefaultConfig(0x515)
	cfg.Population = 8
	cfg.Generations = 5
	cfg.Elite = 2
	cfg.Seeds = []ipv.Vector{ipv.LRU(16), ipv.LIP(16)}
	_ = workers
	return cfg
}

// TestEvolveKillAndResumeBitIdentical is the crash-safety contract: a run
// cancelled mid-flight via context and resumed from its last generation
// snapshot must produce the same best vector, fitness and history — bit for
// bit — as a run that was never interrupted, serially and at 8 workers.
func TestEvolveKillAndResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		env := testEnv(t).SetWorkers(workers)

		wantBest, wantFit, wantHist, err := Evolve(context.Background(), env, resumeCfg(workers))
		if err != nil {
			t.Fatal(err)
		}

		// Interrupted run: cancel as soon as generation 2's snapshot lands,
		// so generations 3 and 4 never run before the "crash".
		ctx, cancel := context.WithCancel(context.Background())
		var last State
		cfg := resumeCfg(workers)
		cfg.OnState = func(st State) {
			last = st
			if st.Generation == 2 {
				cancel()
			}
		}
		_, _, _, err = Evolve(ctx, env, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: interrupted run err = %v", workers, err)
		}
		if last.Generation != 2 {
			t.Fatalf("workers=%d: last snapshot at generation %d", workers, last.Generation)
		}

		// Resume from the snapshot on a fresh environment (a real resume is
		// a new process).
		cfg2 := resumeCfg(workers)
		cfg2.Resume = &last
		gotBest, gotFit, gotHist, err := Evolve(context.Background(), testEnv(t).SetWorkers(workers), cfg2)
		if err != nil {
			t.Fatalf("workers=%d: resume err = %v", workers, err)
		}
		if !gotBest.Equal(wantBest) || gotFit != wantFit {
			t.Fatalf("workers=%d: resumed (%v, %v) != uninterrupted (%v, %v)",
				workers, gotBest, gotFit, wantBest, wantFit)
		}
		if len(gotHist) != len(wantHist) {
			t.Fatalf("workers=%d: history length %d != %d", workers, len(gotHist), len(wantHist))
		}
		for i := range wantHist {
			if gotHist[i] != wantHist[i] {
				t.Fatalf("workers=%d: generation %d history %v != %v",
					workers, i, gotHist[i], wantHist[i])
			}
		}
	}
}

// TestEvolveResumeThroughCheckpointFile proves the full persistence loop:
// the snapshot survives the JSON envelope (atomic write, checksum,
// fingerprint) and still resumes bit-identically — i.e. float64 fitnesses
// and RNG state round-trip exactly through the on-disk format.
func TestEvolveResumeThroughCheckpointFile(t *testing.T) {
	env := testEnv(t).SetWorkers(4)
	cfg := resumeCfg(4)
	wantBest, wantFit, _, err := Evolve(context.Background(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "evolve.ckpt")
	const fp = "test|pop=8|gens=5"
	ctx, cancel := context.WithCancel(context.Background())
	run := resumeCfg(4)
	run.OnState = func(st State) {
		if err := checkpoint.Save(path, fp, st); err != nil {
			t.Fatalf("save: %v", err)
		}
		if st.Generation == 1 {
			cancel()
		}
	}
	_, _, _, err = Evolve(ctx, env, run)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v", err)
	}

	var loaded State
	if err := checkpoint.Load(path, fp, &loaded); err != nil {
		t.Fatalf("load: %v", err)
	}
	resume := resumeCfg(4)
	resume.Resume = &loaded
	gotBest, gotFit, _, err := Evolve(context.Background(), testEnv(t).SetWorkers(4), resume)
	if err != nil {
		t.Fatal(err)
	}
	if !gotBest.Equal(wantBest) || gotFit != wantFit {
		t.Fatalf("resumed-from-disk (%v, %v) != uninterrupted (%v, %v)",
			gotBest, gotFit, wantBest, wantFit)
	}
}

func TestEvolveResumeRejectsMismatchedState(t *testing.T) {
	env := testEnv(t).SetWorkers(2)
	var st State
	cfg := resumeCfg(2)
	cfg.Generations = 1
	cfg.OnState = func(s State) { st = s }
	if _, _, _, err := Evolve(context.Background(), env, cfg); err != nil {
		t.Fatal(err)
	}

	bad := resumeCfg(2)
	bad.Population = 12 // differs from the snapshot's 8
	bad.Resume = &st
	if _, _, _, err := Evolve(context.Background(), env, bad); err == nil {
		t.Fatal("resume with mismatched population accepted")
	}

	corrupt := st
	corrupt.Population = append([]Scored(nil), st.Population...)
	corrupt.Population[0] = Scored{Vector: ipv.Vector{0, 99, 0}, Fitness: 1}
	withBad := resumeCfg(2)
	withBad.Resume = &corrupt
	if _, _, _, err := Evolve(context.Background(), env, withBad); err == nil {
		t.Fatal("resume with invalid vector accepted")
	}
}

func TestEvolvePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := Evolve(ctx, testEnv(t), resumeCfg(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
