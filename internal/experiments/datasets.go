package experiments

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/sparse"
	"repro/internal/tree"
)

// SynthConfig parameterizes the SYNTH dataset of Section 6.1. The paper
// uses 330 uniform binary trees of 3000 nodes with weights in [1, 100].
type SynthConfig struct {
	Count int
	Nodes int
	Seed  int64
}

// PaperSynth is the paper-scale configuration.
var PaperSynth = SynthConfig{Count: 330, Nodes: 3000, Seed: 9025}

// SmallSynth is a reduced configuration for quick runs and benchmarks.
var SmallSynth = SynthConfig{Count: 40, Nodes: 300, Seed: 9025}

// Synth generates the SYNTH dataset: instances whose peak exceeds LB (all
// random binary trees of this size do in practice, but the filter keeps the
// invariant explicit).
func Synth(cfg SynthConfig) []*core.Instance {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*core.Instance, 0, cfg.Count)
	for i := 0; len(out) < cfg.Count; i++ {
		t := randtree.Synth(cfg.Nodes, rng)
		in := core.NewInstance(fmt.Sprintf("synth-%04d", i), t)
		if in.NeedsIO() {
			out = append(out, in)
		}
	}
	return out
}

// DeepChain builds the adversarial regime of the expansion engine: a bushy
// I/O-bound SYNTH subtree of `bushy` nodes hanging at the bottom of a unit
// spine of `spine` nodes. Subtree peaks are monotone up the tree, so every
// one of the spine prefixes inherits the bottom subtree's peak: under any
// memory bound between LB and Peak, the recursion of RECEXPAND visits all
// spine nodes — which costs O(spine²) on an engine that reschedules the
// whole subtree per visit and O(spine) on the incremental one. Node 0 is
// the root; the spine is 0 ← 1 ← ... ← spine−1 ← bottom root.
func DeepChain(spine, bushy int, seed int64) (*core.Instance, error) {
	if spine < 1 || bushy < 1 {
		return nil, fmt.Errorf("experiments: DeepChain needs spine ≥ 1 and bushy ≥ 1, got %d and %d", spine, bushy)
	}
	rng := rand.New(rand.NewSource(seed))
	var bottom *tree.Tree
	// Retry until the bottom subtree is I/O-bound (Peak > LB), which
	// random binary trees of realistic sizes essentially always are;
	// trees of a handful of nodes may never be, so fail loudly rather
	// than spin.
	for attempt := 0; ; attempt++ {
		if attempt == 1000 {
			return nil, fmt.Errorf("experiments: no I/O-bound synth tree of %d nodes in %d draws", bushy, attempt)
		}
		bottom = randtree.Synth(bushy, rng)
		if in := core.NewInstance("", bottom); in.NeedsIO() {
			break
		}
	}
	n := spine + bottom.N()
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = tree.None
	weight[0] = 1
	for i := 1; i < spine; i++ {
		parent[i] = i - 1
		weight[i] = 1
	}
	bp := bottom.Parents()
	for i, p := range bp {
		if p == tree.None {
			parent[spine+i] = spine - 1
		} else {
			parent[spine+i] = spine + p
		}
		weight[spine+i] = bottom.Weight(i)
	}
	t := tree.MustNew(parent, weight)
	return core.NewInstance(fmt.Sprintf("deepchain-%d-%d", spine, bushy), t), nil
}

// Forest builds the wide regime of the engine: a weight-1 root over k
// copies of one I/O-bound SYNTH subtree of `bushy` nodes, each behind a
// weight-1 buffer node — k equal shards for the sharded profile warm.
// Identical copies give every branch the same peak, so the mid memory
// bound overflows all k branches at once, while the buffer nodes keep the
// forest's peak driven by the subtree peaks rather than by the sum of the
// subtree outputs.
func Forest(k, bushy int, seed int64) (*core.Instance, error) {
	if k < 1 || bushy < 1 {
		return nil, fmt.Errorf("experiments: Forest needs k ≥ 1 and bushy ≥ 1, got %d and %d", k, bushy)
	}
	rng := rand.New(rand.NewSource(seed))
	var sub *tree.Tree
	for attempt := 0; ; attempt++ {
		if attempt == 1000 {
			return nil, fmt.Errorf("experiments: no I/O-bound synth tree of %d nodes in %d draws", bushy, attempt)
		}
		sub = randtree.Synth(bushy, rng)
		if in := core.NewInstance("", sub); in.NeedsIO() {
			break
		}
	}
	parent := []int{tree.None}
	weight := []int64{1}
	for i := 0; i < k; i++ {
		buf := len(parent)
		parent = append(parent, 0)
		weight = append(weight, 1)
		off := len(parent)
		for v := 0; v < sub.N(); v++ {
			p := sub.Parent(v)
			if p == tree.None {
				parent = append(parent, buf)
			} else {
				parent = append(parent, p+off)
			}
			weight = append(weight, sub.Weight(v))
		}
	}
	t := tree.MustNew(parent, weight)
	return core.NewInstance(fmt.Sprintf("forest-%d-%d", k, bushy), t), nil
}

// Huge builds the out-of-core-scale regime of the budgeted profile cache:
// roughly n nodes as a forest of identical hill–valley staircase branches
// behind weight-1 buffer nodes. Each branch is a spine whose outputs grow
// toward its top while a leaf of shrinking weight hangs at every step —
// the shape whose canonical profiles retain one segment per spine level
// (Σ segments = Θ(L²) per branch of spine length L), i.e. the
// caterpillar-profile regime DESIGN.md §5 names as the cache's worst
// case. Profile segments, not rope pages, dominate the footprint here, so
// a resident-byte budget has real leverage: the unbounded warm holds tens
// of segments per node while the floor (schedule ropes plus the live
// merge frontier) is an order of magnitude smaller.
//
// Construction replicates one branch O(n); the instance analysis uses a
// memory-budgeted, parallel-warmed liu.ProfileCache instead of
// core.NewInstance's transient MinMem pass, so building a 10⁷-node
// instance does not itself blow the memory the budget is there to bound.
func Huge(n int, seed int64) *core.Instance {
	const spine = 250 // branch = 2·spine nodes; Σ segments ≈ spine²/2
	_ = seed          // the staircase is deterministic; seed kept for API symmetry
	k := n / (2*spine + 1)
	if k < 1 {
		k = 1
	}
	total := 1 + k*(2*spine+1)
	parent := make([]int, 1, total)
	weight := make([]int64, 1, total)
	parent[0] = tree.None
	weight[0] = 1
	for i := 0; i < k; i++ {
		buf := len(parent)
		parent = append(parent, 0)
		weight = append(weight, 1)
		// Spine j = spine..1 top-down: spine node weight j·C (outputs grow
		// toward the branch top, so earlier valleys stay below later ones
		// and segments survive canonicalization), leaf weight W − j·D
		// (peaks shrink toward the bottom, keeping hills decreasing).
		const C, W, D = 2, 5000, 10
		prev := buf
		for j := spine; j >= 1; j-- {
			id := len(parent)
			parent = append(parent, prev)
			weight = append(weight, int64(j)*C)
			lw := int64(W) - int64(j)*D
			if lw < 1 {
				lw = 1
			}
			parent = append(parent, id)
			weight = append(weight, lw)
			prev = id
		}
	}
	t := tree.MustNew(parent, weight)
	// Budgeted, sharded warm for the peak: the analysis of the huge
	// instance is itself a bounded-memory workload.
	c := liu.NewProfileCacheOpts(t, liu.CacheOptions{MaxResidentBytes: 64 << 20})
	c.EnsureParallel(t.Root(), runtime.GOMAXPROCS(0))
	return &core.Instance{
		Name: fmt.Sprintf("huge-%d x%d", 2*spine, k),
		Tree: t,
		LB:   t.MaxWBar(),
		Peak: c.Peak(t.Root()),
	}
}

// TreesConfig parameterizes the TREES dataset: elimination task trees of
// synthetic sparse matrices standing in for the University of Florida
// collection (see DESIGN.md). The generator enumerates matrix families —
// square and rectangular 2-D grids under natural and nested-dissection
// orderings with several separator leaf sizes, 3-D grids, random symmetric
// patterns of varying size/density/seed, and banded matrices — and keeps
// the instances whose optimal peak exceeds LB (the paper similarly keeps
// 133 of its 329 trees).
type TreesConfig struct {
	// Scale multiplies the linear grid dimensions and random sizes.
	Scale int
	Seed  int64
	// Relax is the supernode amalgamation relaxation (0 = fundamental).
	Relax int64
	// Variants multiplies the number of randomized instances per family
	// (default 1; PaperTrees uses 6).
	Variants int
}

// PaperTrees approximates the paper-scale dataset (hundreds of candidate
// matrices before the Peak > LB filter).
var PaperTrees = TreesConfig{Scale: 2, Seed: 9025, Variants: 6}

// SmallTrees is a reduced configuration for quick runs and benchmarks.
var SmallTrees = TreesConfig{Scale: 1, Seed: 9025, Variants: 1}

// Trees generates the TREES dataset and keeps only instances that need
// I/O for some bound (Peak > LB), as Section 6.1 does. Generator and
// ordering failures are returned with the failing family named.
func Trees(cfg TreesConfig) ([]*core.Instance, error) {
	s := cfg.Scale
	if s < 1 {
		s = 1
	}
	variants := cfg.Variants
	if variants < 1 {
		variants = 1
	}
	type spec struct {
		name string
		pat  *sparse.Pattern
	}
	var specs []spec
	// addSpec wraps the fallible pattern builders: family construction
	// stops at the first failure, named after the failing instance.
	var buildErr error
	addSpec := func(name string, p *sparse.Pattern, err error) {
		if buildErr != nil {
			return
		}
		if err != nil {
			buildErr = fmt.Errorf("experiments: building %s: %w", name, err)
			return
		}
		specs = append(specs, spec{name, p})
	}
	// 2-D grids, natural ordering: long, skinny elimination trees.
	for _, g := range []int{8, 12, 16, 20, 24} {
		p, err := sparse.Grid2D(g*s, g*s)
		addSpec(fmt.Sprintf("grid2d-nat-%d", g*s), p, err)
	}
	// Rectangular and square 2-D grids under nested dissection with
	// several separator leaf sizes: bushy, well-balanced trees whose
	// subtree imbalance is what separates the heuristics.
	for _, g := range []struct{ nx, ny int }{
		{10, 10}, {12, 12}, {14, 14}, {16, 16}, {18, 18}, {20, 20},
		{22, 22}, {24, 24}, {26, 26}, {28, 28},
		{12, 30}, {8, 40}, {16, 24}, {30, 12}, {20, 36}, {10, 50},
		{14, 42}, {24, 32}, {18, 54},
	} {
		for _, leaf := range []int{4, 8, 16} {
			nx, ny := g.nx*s, g.ny*s
			name := fmt.Sprintf("grid2d-nd-%dx%d-l%d", nx, ny, leaf)
			p, err := sparse.Grid2D(nx, ny)
			if err != nil {
				addSpec(name, nil, err)
				continue
			}
			pp, err := p.Permute(sparse.NestedDissection2D(nx, ny, leaf))
			addSpec(name, pp, err)
		}
	}
	// Perturbed ND grids: regular stencils plus random long-range
	// couplings, the closest synthetic stand-in for irregular
	// application matrices; several seeds per configuration.
	for _, g := range []struct{ nx, ny int }{
		{12, 12}, {16, 16}, {20, 20}, {24, 24}, {16, 32}, {12, 44},
	} {
		for v := 0; v < variants; v++ {
			nx, ny := g.nx*s, g.ny*s
			name := fmt.Sprintf("grid2d-px-%dx%d-v%d", nx, ny, v)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000*g.nx+10*g.ny+v)))
			base, err := sparse.Grid2D(nx, ny)
			if err != nil {
				addSpec(name, nil, err)
				continue
			}
			p := sparse.Perturb(base, nx*ny/10, rng)
			pp, err := p.Permute(sparse.NestedDissection2D(nx, ny, 8))
			addSpec(name, pp, err)
		}
	}
	// 3-D grids under nested dissection: heavy, fast-growing fronts.
	for _, g := range []struct{ nx, ny, nz int }{
		{6, 6, 6}, {8, 8, 8}, {10, 10, 10}, {6, 8, 12}, {4, 10, 16},
	} {
		nx, ny, nz := g.nx*s, g.ny*s, g.nz*s
		name := fmt.Sprintf("grid3d-nd-%dx%dx%d", nx, ny, nz)
		p, err := sparse.Grid3D(nx, ny, nz)
		if err != nil {
			addSpec(name, nil, err)
			continue
		}
		pp, err := p.Permute(sparse.NestedDissection3D(nx, ny, nz, 8))
		addSpec(name, pp, err)
	}
	// 3-D grids: heavier fronts, wider weight spreads.
	for _, g := range []int{4, 5, 6, 7} {
		p, err := sparse.Grid3D(g*s, g*s, g*s)
		addSpec(fmt.Sprintf("grid3d-nat-%d", g*s), p, err)
	}
	// Random symmetric patterns: irregular trees; several seeds per
	// size/density, both in natural and minimum-degree ordering (the
	// latter is what a real solver would use and yields bushier trees).
	for i, n := range []int{150, 300, 500, 800, 1200} {
		for _, deg := range []int{3, 4, 6} {
			for v := 0; v < variants; v++ {
				seed := cfg.Seed + int64(10000*v+100*i+deg)
				name := fmt.Sprintf("rand-%d-d%d-v%d", n*s, deg, v)
				p, err := sparse.RandomSymmetric(n*s, deg, rand.New(rand.NewSource(seed)))
				addSpec(name, p, err)
				if err != nil {
					continue
				}
				// Minimum degree is the expensive part: cap its use.
				if v < 2 && n*s <= 1000 {
					pm, err := p.Permute(sparse.MinimumDegree(p))
					addSpec(fmt.Sprintf("rand-md-%d-d%d-v%d", n*s, deg, v), pm, err)
				}
			}
		}
	}
	// Banded matrices: near-chains after amalgamation.
	for _, n := range []int{200, 400} {
		p, err := sparse.Band(n*s, 4)
		addSpec(fmt.Sprintf("band-%d", n*s), p, err)
	}
	if buildErr != nil {
		return nil, buildErr
	}
	var out []*core.Instance
	for _, sp := range specs {
		t, err := sparse.EliminationTaskTree(sp.pat, cfg.Relax)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", sp.name, err)
		}
		in := core.NewInstance(sp.name, t)
		if in.NeedsIO() {
			out = append(out, in)
		}
	}
	return out, nil
}
