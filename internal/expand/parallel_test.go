package expand

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// TestRecExpandParallelDeterminism is the sharded warm's differential
// guarantee: across the same 220-instance corpus as
// TestRecExpandMatchesReference — all victim policies, per-node budgets
// and (occasionally tiny) global caps — the Result must be
// reflect.DeepEqual-identical for Workers ∈ {1, 2, 8}, and identical to
// the frozen reference engine. Workers > 1 always shards the initial warm,
// whatever the tree size, so every instance walks a sharded-warm cache.
func TestRecExpandParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	tried := 0
	for trial := 0; tried < 220; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(150), rng)
		} else {
			tr = randomTree(2+rng.Intn(60), rng)
		}
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		opts := Options{
			MaxPerNode: []int{0, 1, 2, 5}[rng.Intn(4)],
			Victim:     []VictimPolicy{LatestParent, EarliestParent, LargestTau}[rng.Intn(3)],
		}
		if rng.Intn(8) == 0 {
			opts.GlobalCap = 1 + rng.Intn(4)
		}
		tried++
		opts.Workers = 1
		want, err := RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: sequential engine: %v", trial, err)
		}
		for _, workers := range []int{2, 8} {
			opts.Workers = workers
			got, err := RecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: workers=%d diverges (opts=%+v M=%d n=%d)\nparallel:   %+v\nsequential: %+v",
					trial, workers, opts, M, tr.N(), got, want)
			}
		}
		opts.Workers = 0
		ref, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference engine: %v", trial, err)
		}
		if !reflect.DeepEqual(want, ref) {
			t.Fatalf("trial %d: sequential engine diverges from reference (opts=%+v M=%d)", trial, opts, M)
		}
	}
	if tried < 200 {
		t.Fatalf("only %d I/O-bound instances generated, need >= 200", tried)
	}
}

// TestRecExpandParallelCapCorpus crosses the sharded warm with a tripping
// global cap: with a cap in the interesting range (around the
// unconstrained expansion count), CapHit and the truncated expansion
// sequence must be identical for every worker count.
func TestRecExpandParallelCapCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tried := 0
	for tried < 120 {
		tr := randtree.Synth(30+rng.Intn(200), rng)
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		tried++
		M := lb + rng.Int63n(peak-lb)
		free, err := RecExpand(tr, M, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cap := 1 + rng.Intn(free.Expansions+2)
		opts := Options{GlobalCap: cap, Workers: 1}
		want, err := RecExpand(tr, M, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			opts.Workers = workers
			got, err := RecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("cap=%d workers=%d: %v", cap, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap=%d workers=%d diverges: CapHit %v/%v, Expansions %d/%d",
					cap, workers, got.CapHit, want.CapHit, got.Expansions, want.Expansions)
			}
		}
	}
}
