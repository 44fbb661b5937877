package expand_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/tree"
)

// TestRecExpandParallelWideForest runs the shapes the sharded warm is
// built for — a root over many independent I/O-bound branches — through
// the streamed finish under a cache budget of a few KiB, with the cache
// audit armed. The staircase forest is large enough that the automatic
// worker count shards the warm on a multi-core host, and its caterpillar
// profiles make the tiny budget evict and rematerialize throughout the
// run. For every
// worker count the Result and the concatenated segments must equal the
// sequential materialized run.
func TestRecExpandParallelWideForest(t *testing.T) {
	forest, err := experiments.Forest(8, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*core.Instance{forest, experiments.Huge(20000, 1)} {
		if !in.NeedsIO() {
			t.Fatalf("%s: instance is not I/O-bound", in.Name)
		}
		M := in.M(core.BoundMid)
		want, err := expand.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(in.Tree, want.Schedule); err != nil {
			t.Fatalf("%s: invalid schedule: %v", in.Name, err)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			opts := expand.Options{MaxPerNode: 2, Workers: workers, CacheBudget: 4 << 10, VerifyCache: true}
			var segs tree.Schedule
			eng := expand.NewEngine()
			got, err := eng.RecExpandStream(in.Tree, M, opts, func(seg []int) bool {
				segs = append(segs, seg...)
				return true
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.Name, workers, err)
			}
			if !reflect.DeepEqual(segs, want.Schedule) {
				t.Fatalf("%s workers=%d: streamed segments diverge from the sequential schedule", in.Name, workers)
			}
			got.Schedule = segs
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: Result diverges\ngot:  %+v\nwant: %+v", in.Name, workers, got, want)
			}
			if st := eng.CacheStats(); st.Evictions+st.SlicedProfiles == 0 {
				t.Fatalf("%s workers=%d: the budget never evicted: %+v", in.Name, workers, st)
			}
		}
	}
}
