package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphgen"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
)

// randomGraph builds a random directed graph over n vertices with sparse
// random IDs (so dense indexes and external IDs never coincide), optional
// isolated vertices included.
func randomGraph(t *testing.T, rng *rand.Rand, n int, p float64) *graphgen.Graph {
	t.Helper()
	g := graphgen.WrapCore(core.New(core.EXP))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i*7 + 100 + rng.Intn(3))
		for j := 0; j < i; j++ {
			if ids[j] == ids[i] {
				ids[i]++
				j = -1
			}
		}
		if err := g.AddVertex(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				if err := g.AddEdge(ids[i], ids[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// pickSources draws a random source set: some present IDs, sometimes an
// unknown ID, sometimes empty.
func pickSources(rng *rand.Rand, ids []int64) []int64 {
	k := rng.Intn(4)
	var out []int64
	for i := 0; i < k; i++ {
		out = append(out, ids[rng.Intn(len(ids))])
	}
	if rng.Intn(3) == 0 {
		out = append(out, -12345) // not in the graph
	}
	return out
}

func TestMultiSourceBFSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(60)
		p := []float64{0.02, 0.08, 0.3}[rng.Intn(3)]
		g := randomGraph(t, rng, n, p)
		snap := Snap(g)
		sources := pickSources(rng, snap.IDs())

		fast := snap.MultiSourceBFS(sources)
		naive := NaiveMultiSourceBFS(g, sources)

		if !reflect.DeepEqual(fast.Dist, naive.Dist) {
			t.Fatalf("trial %d: distance maps differ\nfast:  %v\nnaive: %v", trial, fast.Dist, naive.Dist)
		}
		if fast.Reached != naive.Reached || fast.Unreached != naive.Unreached ||
			fast.MaxDepth != naive.MaxDepth || fast.SumDist != naive.SumDist {
			t.Fatalf("trial %d: summaries differ: fast %+v naive %+v", trial, fast, naive)
		}
		if !reflect.DeepEqual(fast.Sources, naive.Sources) {
			t.Fatalf("trial %d: echoed sources differ: %v vs %v", trial, fast.Sources, naive.Sources)
		}
	}
}

// randomCondensedGraph builds a random two-layer C-DUP graph whose dense
// indexes disagree with ID order, then tombstones some real nodes (no
// Compact) and removes some virtual nodes, so Snap's dense-index remap
// must skip dead real slots and dead virtual slots.
func randomCondensedGraph(t *testing.T, rng *rand.Rand, n int) *graphgen.Graph {
	t.Helper()
	c := core.New(core.CDUP)
	for _, i := range rng.Perm(n) {
		c.AddRealNode(int64(i*5 + 1000))
	}
	pick := func() int32 { return int32(rng.Intn(n)) }
	var layer1 []int32
	for v := 0; v < n/3+1; v++ {
		x := c.AddVirtualNode(1)
		layer1 = append(layer1, x)
		for k := rng.Intn(5); k > 0; k-- {
			c.ConnectRealToVirt(pick(), x)
		}
		for k := rng.Intn(5); k > 0; k-- {
			c.ConnectVirtToReal(x, pick())
		}
	}
	for v := 0; v < n/8+1; v++ {
		x := c.AddVirtualNode(2)
		c.ConnectVirtToVirt(layer1[rng.Intn(len(layer1))], x)
		for k := rng.Intn(4) + 1; k > 0; k-- {
			c.ConnectVirtToReal(x, pick())
		}
	}
	for k := n / 4; k > 0; k-- {
		c.AddDirectEdgeIdx(pick(), pick())
	}
	for _, x := range layer1[:len(layer1)/3] {
		c.RemoveVirtualNode(x)
	}
	g := graphgen.WrapCore(c)
	for k := n / 5; k > 0; k-- {
		g.DeleteVertex(int64(rng.Intn(n)*5 + 1000)) // may already be gone
	}
	return g
}

// TestSnapEquivalenceCondensed runs the naive-vs-fast equivalence on
// condensed graphs with tombstoned real nodes and dead virtual slots.
func TestSnapEquivalenceCondensed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		g := randomCondensedGraph(t, rng, 6+rng.Intn(50))
		c := g.Core()
		if c.NumRealNodes() == c.NumRealSlots() || c.NumVirtualNodes() == c.NumVirtualSlots() {
			t.Fatalf("trial %d: no dead real or virtual slots", trial)
		}
		snap := Snap(g)
		if snap.NumVertices() != g.NumVertices() || snap.NumEdges() != g.LogicalEdges() {
			t.Fatalf("trial %d: snapshot has %d vertices and %d edges, graph %d and %d",
				trial, snap.NumVertices(), snap.NumEdges(), g.NumVertices(), g.LogicalEdges())
		}
		sources := pickSources(rng, snap.IDs())
		fast, naive := snap.MultiSourceBFS(sources), NaiveMultiSourceBFS(g, sources)
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("trial %d: sssp differs\nfast:  %+v\nnaive: %+v", trial, fast, naive)
		}
		all := snap.IDs()
		fastC, naiveC := snap.Closeness(all, 2), NaiveCloseness(g, all)
		if len(fastC) != len(naiveC) {
			t.Fatalf("trial %d: %d closeness scores, naive %d", trial, len(fastC), len(naiveC))
		}
		for i := range fastC {
			f, nv := fastC[i], naiveC[i]
			if f.ID != nv.ID || f.Reached != nv.Reached || f.SumDist != nv.SumDist || math.Abs(f.Closeness-nv.Closeness) > 1e-12 {
				t.Fatalf("trial %d: closeness %d differs: fast %+v naive %+v", trial, i, f, nv)
			}
		}
	}
}

func TestClosenessEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		p := []float64{0.03, 0.1, 0.4}[rng.Intn(3)]
		g := randomGraph(t, rng, n, p)
		snap := Snap(g)
		// All vertices, plus an unknown ID that both must drop.
		sources := append(append([]int64{}, snap.IDs()...), -1)

		for _, workers := range []int{1, 4} {
			fast := snap.Closeness(sources, workers)
			naive := NaiveCloseness(g, sources)
			if len(fast) != len(naive) {
				t.Fatalf("trial %d: score counts differ: %d vs %d", trial, len(fast), len(naive))
			}
			for i := range fast {
				f, nv := fast[i], naive[i]
				if f.ID != nv.ID || f.Reached != nv.Reached || f.SumDist != nv.SumDist {
					t.Fatalf("trial %d: score %d differs: fast %+v naive %+v", trial, i, f, nv)
				}
				if math.Abs(f.Closeness-nv.Closeness) > 1e-12 {
					t.Fatalf("trial %d: closeness of %d differs: %v vs %v", trial, f.ID, f.Closeness, nv.Closeness)
				}
			}
		}
	}
}

func TestInterestCommunitiesEquivalence(t *testing.T) {
	db := datagen.SNB(datagen.SNBConfig{Seed: 9, ScaleFactor: 0.05})
	engine := graphgen.NewEngine(db)
	for _, tag := range []string{datagen.TagName(0), datagen.TagName(7), datagen.TagName(49)} {
		fast, err := InterestCommunities(engine, tag)
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		naive, err := NaiveInterestCommunities(db, tag)
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		if fast.Members != naive.Members || fast.Communities != naive.Communities || fast.LargestSize != naive.LargestSize {
			t.Fatalf("tag %s: summaries differ: fast %+v naive %+v", tag, fast, naive)
		}
		if !reflect.DeepEqual(fast.Partition, naive.Partition) {
			t.Fatalf("tag %s: partitions differ\nfast:  %v\nnaive: %v", tag, fast.Partition, naive.Partition)
		}
		if fast.Members == 0 {
			t.Fatalf("tag %s: no members — the test exercised nothing", tag)
		}
	}
}

// TestInterestCommunityProgramQuoting: tags with metacharacters survive
// the round trip into the Datalog source.
func TestInterestCommunityProgramQuoting(t *testing.T) {
	db := graphgen.NewDB()
	mustCreate := func(name string, cols ...graphgen.Column) *graphgen.Table {
		tb, err := db.Create(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	person := mustCreate("Person",
		graphgen.Column{Name: "id", Type: graphgen.Int},
		graphgen.Column{Name: "name", Type: graphgen.String},
		graphgen.Column{Name: "country", Type: graphgen.String})
	knows := mustCreate("Knows",
		graphgen.Column{Name: "src", Type: graphgen.Int},
		graphgen.Column{Name: "dst", Type: graphgen.Int})
	hi := mustCreate("HasInterest",
		graphgen.Column{Name: "person", Type: graphgen.Int},
		graphgen.Column{Name: "tag", Type: graphgen.String})
	tag := `rock'n\roll`
	for p := int64(1); p <= 3; p++ {
		person.Insert(graphgen.IntVal(p), graphgen.StrVal("p"), graphgen.StrVal("c"))
		hi.Insert(graphgen.IntVal(p), graphgen.StrVal(tag))
	}
	knows.Insert(graphgen.IntVal(1), graphgen.IntVal(2))
	knows.Insert(graphgen.IntVal(2), graphgen.IntVal(1))
	res, err := InterestCommunities(graphgen.NewEngine(db), tag)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != 3 || res.Communities != 2 {
		t.Fatalf("got %d members in %d communities, want 3 in 2", res.Members, res.Communities)
	}
}

func TestSampleSourcesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 50, 0.05)
	snap := Snap(g)
	a := snap.SampleSources(8)
	b := snap.SampleSources(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SampleSources is not deterministic")
	}
	if len(a) != 8 {
		t.Fatalf("got %d sources, want 8", len(a))
	}
	seen := make(map[int64]bool)
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate sampled source %d", id)
		}
		seen[id] = true
	}
	if got := snap.SampleSources(0); len(got) != 50 {
		t.Fatalf("SampleSources(0) returned %d ids, want all 50", len(got))
	}
	if got := snap.SampleSources(100); len(got) != 50 {
		t.Fatalf("SampleSources(100) returned %d ids, want all 50", len(got))
	}
}

func TestTopCloseness(t *testing.T) {
	scores := []CentralityScore{
		{ID: 3, Closeness: 0.5}, {ID: 1, Closeness: 0.9}, {ID: 2, Closeness: 0.5},
	}
	top := TopCloseness(scores, 2)
	if len(top) != 2 || top[0].ID != 1 || top[1].ID != 2 {
		t.Fatalf("unexpected top-2 order: %+v", top)
	}
	if scores[0].ID != 3 {
		t.Fatal("TopCloseness mutated its input")
	}
}
