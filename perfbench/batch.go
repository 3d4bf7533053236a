package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/workload"
)

// A run builds its inputs at least setupRepeats times and until the
// builds took setupMinTotal; setup_s is the median build, so one slow
// build does not move it, and a fast one is repeated often enough to be
// steady.
const (
	setupRepeats  = 3
	setupMinTotal = 2 * time.Second
)

// expEdgeBudget bounds every EXP extraction (the Table 1 harness's
// budget); the paper-batch inputs stay well below it.
const expEdgeBudget = 3_000_000

// --- paper-batch ---

// paperDataset is one Table 1 database with its extraction query.
type paperDataset struct {
	name  string
	db    *graphgen.DB
	query string
}

// paperInputs generates the four Table 1 databases at the default scale
// of experiments.Table1Datasets, with every generator seeded from seed.
func paperInputs(seed int64) []paperDataset {
	s := seed * 16
	return []paperDataset{
		{"dblp", datagen.DBLPLike(s+1, 3000, 2400), datagen.QueryCoauthors},
		{"imdb", datagen.IMDBLike(s+2, 1600, 260), datagen.QueryCoactors},
		{"tpch", datagen.TPCHLike(s+3, 300, 2000, 25, 3), datagen.QuerySamePart},
		{"univ", datagen.UnivLike(s+4, 800, 20, 40, 4), datagen.QuerySameCourse},
	}
}

// repNames are the representations paper-batch analyses, in pass order.
var repNames = []string{"cdup", "dedup1", "bitmap2"}

// analysis is what the four algorithms returned on one representation;
// the output checks compare it across representations.
type analysis struct {
	logicalEdges int64
	degrees      []int // sorted multiset
	components   int
	bfsVisited   int
}

// batchPass accumulates what one pass of a batch workload measured.
type batchPass struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time over the same intervals as wall
	extract  time.Duration
	profiles []*graphgen.Profile
	// graph size totals over the pass's datasets, per representation.
	memBytes, logical, repEdges map[string]int64
	virtualNodes                int64
	peakIntermediate            int64
	eval                        graphgen.EvalStats
}

func newBatchPass() *batchPass {
	return &batchPass{memBytes: map[string]int64{}, logical: map[string]int64{}, repEdges: map[string]int64{}}
}

func (p *batchPass) addGraph(rep string, g *graphgen.Graph) {
	p.memBytes[rep] += g.MemBytes()
	p.logical[rep] += g.LogicalEdges()
	p.repEdges[rep] += g.RepEdges()
}

// addExtraction records an extraction's profile and intermediate-row peak.
func (p *batchPass) addExtraction(g *graphgen.Graph) {
	if prof := g.Profile(); prof != nil {
		p.profiles = append(p.profiles, prof)
	}
	if st := g.ExtractionStats(); st.PeakIntermediateRows > p.peakIntermediate {
		p.peakIntermediate = st.PeakIntermediateRows
	}
}

// runPaperBatch runs the paper's own path (Table 1, Figures 10 and 11)
// over the four databases, pass after pass, until the deadline.
func runPaperBatch(cfg config) (*result, error) {
	var inputs []paperDataset
	setups := timeSetups(func() { inputs = paperInputs(cfg.seed) })
	res := &result{}
	for _, d := range inputs {
		res.notef("input %s: %d rows", d.name, d.db.TotalRows())
	}
	pass := func(tr *tracer, op int64) (*batchPass, error) { return paperPass(tr, op, inputs, res) }
	return runBatch(cfg, res, setups, pass)
}

// paperPass runs one pass: for every database, Engine.Extract into C-DUP
// and EXP, Graph.As to DEDUP-1 and BITMAP-2 where the graph class allows
// it, and degree, BFS, PageRank and components on C-DUP, DEDUP-1 and
// BITMAP-2. It checks that every representation agrees with C-DUP. A
// traced pass (tr non-nil) also arms graphgen.WithProfile.
func paperPass(tr *tracer, op int64, inputs []paperDataset, res *result) (*batchPass, error) {
	p := newBatchPass()
	root := tr.begin("pass", "paper-batch", -1, op)
	defer tr.end(root)
	for _, d := range inputs {
		// The clock stops between datasets, while the checks run, so a
		// pass holds one dataset's graphs at a time.
		start, cpuStart := time.Now(), processCPU()
		eng := graphgen.NewEngine(d.db)
		cdupOpts := []graphgen.Option{graphgen.WithForceCondensed(), graphgen.WithoutPreprocessing()}
		expOpts := []graphgen.Option{graphgen.WithForceExpand(), graphgen.WithoutPreprocessing(), graphgen.WithMaxEdges(expEdgeBudget)}
		if tr != nil {
			cdupOpts = append(cdupOpts, graphgen.WithProfile())
			expOpts = append(expOpts, graphgen.WithProfile())
		}
		var cdup, exp *graphgen.Graph
		var err error
		p.extract += tr.timed("extract.Extract", d.name+"/cdup", root, op, func() { cdup, err = eng.Extract(d.query, cdupOpts...) })
		if err != nil {
			return nil, fmt.Errorf("%s: C-DUP extraction: %w", d.name, err)
		}
		p.extract += tr.timed("extract.Extract", d.name+"/exp", root, op, func() { exp, err = eng.Extract(d.query, expOpts...) })
		if err != nil {
			return nil, fmt.Errorf("%s: EXP extraction: %w", d.name, err)
		}

		reps := map[string]*graphgen.Graph{"cdup": cdup}
		for _, conv := range []struct {
			name string
			rep  graphgen.Representation
		}{{"dedup1", graphgen.DEDUP1}, {"bitmap2", graphgen.BITMAP}} {
			var g *graphgen.Graph
			tr.timed("dedup.As", d.name+"/"+conv.name, root, op, func() { g, err = cdup.As(conv.rep) })
			switch {
			case errors.Is(err, graphgen.ErrUnsupported):
				if op == 0 {
					res.notef("%s: %s not applicable (graph class unsupported)", d.name, conv.name)
				}
			case err != nil:
				return nil, fmt.Errorf("%s: converting to %s: %w", d.name, conv.name, err)
			default:
				reps[conv.name] = g
			}
		}

		src := minVertex(cdup)
		results := map[string]analysis{}
		for _, rep := range repNames {
			g := reps[rep]
			if g == nil {
				continue
			}
			attr := d.name + "/" + rep
			a := analysis{logicalEdges: g.LogicalEdges()}
			var deg map[int64]int
			tr.timed("algo.Degrees", attr, root, op, func() { deg = g.Degrees() })
			tr.timed("algo.BFS", attr, root, op, func() { a.bfsVisited, _ = g.BFS(src) })
			tr.timed("algo.PageRank", attr, root, op, func() { g.PageRank(10, 0.85) })
			tr.timed("algo.ConnectedComponents", attr, root, op, func() { _, a.components = g.ConnectedComponents() })
			a.degrees = degreeMultiset(deg)
			results[rep] = a
		}
		p.wall += time.Since(start)
		p.cpu += processCPU() - cpuStart

		reps["exp"] = exp
		for rep, g := range reps {
			p.addGraph(rep, g)
		}
		p.addExtraction(cdup)
		p.addExtraction(exp)
		p.virtualNodes += int64(cdup.NumVirtualNodes())
		expDeg := exp.Degrees()
		_, expComps := exp.ConnectedComponents()
		expVisited, _ := exp.BFS(src)
		results["exp"] = analysis{logicalEdges: exp.LogicalEdges(), degrees: degreeMultiset(expDeg), components: expComps, bfsVisited: expVisited}
		want := results["cdup"]
		for _, rep := range []string{"dedup1", "bitmap2", "exp"} {
			got, ok := results[rep]
			if !ok {
				continue
			}
			res.Attempted++
			switch {
			case got.logicalEdges != want.logicalEdges:
				res.fail("%s %s: %d logical edges, C-DUP has %d", d.name, rep, got.logicalEdges, want.logicalEdges)
			case !slices.Equal(got.degrees, want.degrees):
				res.fail("%s %s: degree multiset differs from C-DUP", d.name, rep)
			case got.components != want.components:
				res.fail("%s %s: %d components, C-DUP has %d", d.name, rep, got.components, want.components)
			case got.bfsVisited != want.bfsVisited:
				res.fail("%s %s: BFS from %d visits %d, C-DUP visits %d", d.name, rep, src, got.bfsVisited, want.bfsVisited)
			}
		}
	}
	return p, nil
}

// minVertex returns the smallest vertex ID of g, the BFS source every
// representation starts from.
func minVertex(g *graphgen.Graph) int64 {
	it := g.Vertices()
	lo, _ := it.Next()
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		lo = min(lo, v)
	}
	return lo
}

func degreeMultiset(deg map[int64]int) []int {
	out := make([]int, 0, len(deg))
	for _, d := range deg {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// --- snb-reach ---

// Sizes of the snb-reach inputs: the seed set of the reachability program
// and the interest-tag list of the community queries.
const (
	reachSeeds = 20
	reachTags  = 10
)

// reachProgram is the recursive multi-source reachability program. Seed
// is a base table the set-up fills with reachSeeds persons.
const reachProgram = `
Reach(S, B) :- Seed(S), Knows(S, B).
Reach(S, C) :- Reach(S, B), Knows(B, C).
Nodes(ID, Name) :- Person(ID, Name, Country).
Edges(S, C) :- Reach(S, C).
`

// reachInput is the snb-reach database plus the expected outputs the
// checks compare against, computed once at set-up by reference code.
type reachInput struct {
	db    *graphgen.DB
	seeds []int64
	tags  []string
	// reach[s] is the set of persons reachable from seed s in one or
	// more Knows hops (a breadth-first search over the Knows rows).
	reach map[int64]map[int64]bool
	// communities[tag] is workload.NaiveInterestCommunities's answer.
	communities map[string]*workload.CommunityResult
}

// reachInputs generates SNB SF1 and draws the seed persons and tags.
func reachInputs(seed int64) (*reachInput, error) {
	db := datagen.SNB(datagen.SNBConfig{Seed: seed, ScaleFactor: 1})
	rng := rand.New(rand.NewSource(seed))
	persons := datagen.SNBConfig{ScaleFactor: 1}.Counts().Persons
	in := &reachInput{db: db}
	for _, i := range rng.Perm(persons)[:reachSeeds] {
		in.seeds = append(in.seeds, int64(i+1))
	}
	for _, t := range rng.Perm(datagen.NumTags)[:reachTags] {
		in.tags = append(in.tags, datagen.TagName(t))
	}
	seedTable, err := db.Create("Seed", graphgen.Column{Name: "id", Type: graphgen.Int})
	if err != nil {
		return nil, err
	}
	for _, s := range in.seeds {
		if err := seedTable.Insert(graphgen.IntVal(s)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// addReferences computes the expected outputs the snb-reach checks use.
func (in *reachInput) addReferences() error {
	knows, err := in.db.Table("Knows")
	if err != nil {
		return err
	}
	adj := make(map[int64][]int64)
	for _, row := range knows.Rows {
		adj[row[0].I] = append(adj[row[0].I], row[1].I)
	}
	in.reach = make(map[int64]map[int64]bool, len(in.seeds))
	for _, s := range in.seeds {
		seen := map[int64]bool{}
		frontier := []int64{s}
		for len(frontier) > 0 {
			var next []int64
			for _, u := range frontier {
				for _, v := range adj[u] {
					if !seen[v] {
						seen[v] = true
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		in.reach[s] = seen
	}
	in.communities = make(map[string]*workload.CommunityResult, len(in.tags))
	for _, tag := range in.tags {
		if in.communities[tag], err = workload.NaiveInterestCommunities(in.db, tag); err != nil {
			return err
		}
	}
	return nil
}

// runSNBReach runs the recursive-Datalog workload: the multi-source
// reachability program and the interest-community queries, pass after
// pass, until the deadline.
func runSNBReach(cfg config) (*result, error) {
	var in *reachInput
	var err error
	setups := timeSetups(func() { in, err = reachInputs(cfg.seed) })
	if err != nil {
		return nil, err
	}
	if err := in.addReferences(); err != nil {
		return nil, err
	}
	res := &result{}
	knows, _ := in.db.Table("Knows")
	person, _ := in.db.Table("Person")
	res.notef("input: %d persons, %d Knows rows, %d seeds, %d tags", person.NumRows(), knows.NumRows(), len(in.seeds), len(in.tags))
	pass := func(tr *tracer, op int64) (*batchPass, error) { return reachPass(tr, op, in, res) }
	return runBatch(cfg, res, setups, pass)
}

// reachPass runs one snb-reach pass and checks its outputs. A traced
// pass (tr non-nil) also arms graphgen.WithProfile.
func reachPass(tr *tracer, op int64, in *reachInput, res *result) (*batchPass, error) {
	p := newBatchPass()
	root := tr.begin("pass", "snb-reach", -1, op)
	var opts []graphgen.Option
	if tr != nil {
		opts = append(opts, graphgen.WithProfile())
	}
	eng := graphgen.NewEngine(in.db)
	start, cpuStart := time.Now(), processCPU()
	var g *graphgen.Graph
	var err error
	tr.timed("datalogeval.ExtractProgram", "reach", root, op, func() { g, err = eng.ExtractProgram(reachProgram, opts...) })
	if err != nil {
		return nil, fmt.Errorf("reachability program: %w", err)
	}
	p.addExtraction(g)
	p.addGraph("cdup", g)
	p.virtualNodes += int64(g.NumVirtualNodes())
	es, _ := g.ProgramStats()
	p.addEval(es)
	comms := make(map[string]*workload.CommunityResult, len(in.tags))
	for _, tag := range in.tags {
		var c *workload.CommunityResult
		tr.timed("workload.InterestCommunities", tag, root, op, func() {
			c, err = workload.InterestCommunities(eng, tag, opts...)
		})
		if err != nil {
			return nil, fmt.Errorf("interest communities of %s: %w", tag, err)
		}
		comms[tag] = c
	}
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpuStart
	tr.end(root)

	res.Attempted++
	want := int64(0)
	for _, s := range in.seeds {
		want += int64(len(in.reach[s]))
		var got []int64
		it := g.Neighbors(s)
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			got = append(got, v)
		}
		exp := make([]int64, 0, len(in.reach[s]))
		for v := range in.reach[s] {
			if v != s {
				exp = append(exp, v)
			}
		}
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			res.fail("seed %d: %d reached persons, breadth-first search reaches %d", s, len(got), len(exp))
			break
		}
	}
	if es.DerivedTuples != want {
		res.fail("%d derived Reach tuples, breadth-first search gives %d", es.DerivedTuples, want)
	}
	for _, tag := range in.tags {
		res.Attempted++
		got, ref := comms[tag], in.communities[tag]
		if got.Members != ref.Members || got.Communities != ref.Communities || !partitionsEqual(got.Partition, ref.Partition) {
			res.fail("tag %s: %d members in %d communities, reference has %d in %d", tag, got.Members, got.Communities, ref.Members, ref.Communities)
		}
	}
	return p, nil
}

// addEval adds one program evaluation's statistics to the pass.
func (p *batchPass) addEval(es graphgen.EvalStats) {
	p.eval.Iterations += es.Iterations
	p.eval.DerivedTuples += es.DerivedTuples
	p.eval.Duration += es.Duration
	p.peakIntermediate = max(p.peakIntermediate, es.PeakIntermediateRows)
}

func partitionsEqual(a, b [][]int64) bool {
	return slices.EqualFunc(a, b, func(x, y []int64) bool { return slices.Equal(x, y) })
}

// --- running a batch workload ---

// timeSetups runs build repeatedly (see setupRepeats) and returns each
// duration in seconds; the last build's inputs are the ones the run uses.
func timeSetups(build func()) []float64 {
	var out []float64
	var total time.Duration
	for len(out) < setupRepeats || total < setupMinTotal {
		runtime.GC() // each build starts from the same heap
		start := time.Now()
		build()
		d := time.Since(start)
		total += d
		out = append(out, d.Seconds())
	}
	return out
}

// runBatch drives a batch workload: untraced, it runs passes until the
// deadline and reports the end-to-end metrics; traced, it alternates
// untraced and traced passes (so obs.trace_overhead_ratio compares passes
// run under the same conditions) and reports the per-layer metrics.
func runBatch(cfg config, res *result, setups []float64, pass func(tr *tracer, op int64) (*batchPass, error)) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	deadline := cfg.deadline()
	ph := beginPhase()
	var plain, traced []*batchPass
	minPasses := int64(1)
	if cfg.trace {
		minPasses = 2 // one untraced and one traced pass
	}
	for op := int64(0); op < minPasses || time.Now().Before(deadline); op++ {
		var passTracer *tracer
		if op%2 == 1 {
			passTracer = tr // nil when the run is untraced
		}
		p, err := pass(passTracer, op)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if passTracer != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	ps := ph.end()
	if !cfg.trace {
		var lat, cpu, extract []float64
		for _, p := range plain {
			lat = append(lat, ms(p.wall))
			cpu = append(cpu, ms(p.cpu))
			extract = append(extract, p.extract.Seconds())
		}
		setEndToEndCommon(res, ps, setups, len(plain), median(cpu))
		last := plain[len(plain)-1]
		res.set("graph_bytes_per_edge", ratio(float64(last.memBytes["cdup"]), float64(last.logical["cdup"])), "B")
		res.notef("pass_s median %.4f s over %d passes", median(lat)/1000, len(lat))
		if x := median(extract); x > 0 {
			res.notef("extract_s (all Engine.Extract calls of a pass) median %.4f s", x)
		}
		return res, nil
	}
	setBatchLayers(res, tr, traced, plain, ps)
	if err := tr.write(cfg.spanDir, cfg); err != nil {
		return nil, err
	}
	return res, nil
}
