package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graphgen/internal/algo"
	"graphgen/internal/core"
	"graphgen/internal/datagen"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// graphState is what snapshot isolation must hold fixed: the logical edge
// set, the out-degree multiset, and the weakly connected component count.
type graphState struct {
	edges      map[[2]int64]bool
	degrees    []int
	components int
}

func stateOf(g *core.Graph) graphState {
	s := graphState{edges: logicalEdges(g)}
	g.ForEachReal(func(r int32) bool {
		s.degrees = append(s.degrees, g.OutDegree(r))
		return true
	})
	sort.Ints(s.degrees)
	_, s.components = algo.ConnectedComponents(g)
	return s
}

func requireState(t *testing.T, what string, g *core.Graph, want graphState) {
	t.Helper()
	got := stateOf(g)
	if !reflect.DeepEqual(got.edges, want.edges) {
		t.Fatalf("%s: logical edge set changed: %d edges, want %d", what, len(got.edges), len(want.edges))
	}
	if !reflect.DeepEqual(got.degrees, want.degrees) {
		t.Fatalf("%s: degree multiset changed", what)
	}
	if got.components != want.components {
		t.Fatalf("%s: %d components, want %d", what, got.components, want.components)
	}
}

// viewAndClone takes a frozen view and, at the same instant, a deep Clone
// of the live graph. The caller is the only table mutator, so no delta can
// arrive between the two.
func viewAndClone(t *testing.T, lv *Live) (*core.Graph, *core.Graph) {
	t.Helper()
	view, ver := lv.SnapshotVersioned()
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	if lv.version != ver {
		t.Fatalf("version moved from %d to %d with no mutation", ver, lv.version)
	}
	return view, lv.g.Clone()
}

// liveClone is a deep copy of the live graph after a flush.
func liveClone(t *testing.T, lv *Live) *core.Graph {
	t.Helper()
	_, c := viewAndClone(t, lv)
	return c
}

// checkSnapshotIsolation drives random mutations through mutate, takes a
// view at every version, and checks that after all later flushes each
// view still equals the Clone taken with it. A reader goroutine walks the
// live graph and earlier views throughout, so -race sees flushes
// overlapping view reads. It then mutates views through the graph API and
// checks that neither the live graph nor sibling views move.
func checkSnapshotIsolation(t *testing.T, lv *Live, steps int, mutate func(step int)) {
	type taken struct {
		view *core.Graph
		want graphState
	}
	var (
		mu    sync.Mutex
		views []*core.Graph
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			var v *core.Graph
			if len(views) > 0 {
				v = views[r.Intn(len(views))]
			}
			mu.Unlock()
			if v == nil {
				continue
			}
			v.LogicalEdges()
			if n := v.NumRealSlots(); n > 0 {
				r := int32(r.Intn(n))
				if v.Alive(r) {
					lv.Neighbors(v.RealID(r))
				}
			}
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()

	var all []taken
	for step := 0; step < steps; step++ {
		mutate(step)
		view, clone := viewAndClone(t, lv)
		all = append(all, taken{view: view, want: stateOf(clone)})
		mu.Lock()
		views = append(views, view)
		mu.Unlock()
	}
	if err := lv.Flush(); err != nil {
		t.Fatal(err)
	}
	if lv.Stats().Transitions == 0 {
		t.Fatal("no edge transitions: the mutations exercised nothing")
	}
	for i, tk := range all {
		requireState(t, fmt.Sprintf("view %d after all flushes", i), tk.view, tk.want)
	}

	// Mutating one handle leaves the live graph, another handle on the
	// same view, and every older view unchanged.
	cur, liveNow := viewAndClone(t, lv)
	sibling, _ := lv.SnapshotVersioned()
	liveWant := stateOf(liveNow)
	var ids []int64
	cur.ForEachReal(func(r int32) bool {
		ids = append(ids, cur.RealID(r))
		return true
	})
	if len(ids) < 3 {
		t.Fatalf("only %d vertices", len(ids))
	}
	u, w, x := ids[0], ids[len(ids)/2], ids[len(ids)-1]
	if !cur.ExistsEdge(u, w) {
		if err := cur.AddEdge(u, w); err != nil {
			t.Fatal(err)
		}
	} else if err := cur.DeleteEdge(u, w); err != nil {
		t.Fatal(err)
	}
	if err := cur.SetPropertyOf(w, "Name", "renamed"); err != nil {
		t.Fatal(err)
	}
	if err := cur.DeleteVertex(x); err != nil {
		t.Fatal(err)
	}
	if cur.ExistsEdge(u, w) == liveNow.ExistsEdge(u, w) {
		t.Fatal("the edge change did not reach the mutated handle")
	}
	if name, _ := cur.PropertyOf(w, "Name"); name != "renamed" {
		t.Fatalf("mutated handle has Name %q", name)
	}
	requireState(t, "live graph after a view was mutated", liveClone(t, lv), liveWant)
	requireState(t, "sibling handle after a view was mutated", sibling, liveWant)
	if name, _ := sibling.PropertyOf(w, "Name"); name == "renamed" {
		t.Fatal("a property set on one handle leaked into its sibling")
	}
	if _, ok := sibling.RealIndex(x); !ok {
		t.Fatal("a vertex deleted on one handle vanished from its sibling")
	}
	old := all[len(all)/2]
	oldHandle := old.view.Freeze()
	if err := oldHandle.DeleteVertex(u); err != nil {
		t.Fatal(err)
	}
	requireState(t, "older view after a handle on it was mutated", old.view, old.want)
	requireState(t, "live graph after an older view was mutated", liveClone(t, lv), liveWant)

	// Maintenance keeps working on the live graph afterwards.
	for step := steps; step < steps+5; step++ {
		mutate(step)
	}
	view, clone := viewAndClone(t, lv)
	requireState(t, "fresh view after more maintenance", view, stateOf(clone))
	for i, tk := range all {
		requireState(t, fmt.Sprintf("view %d at the end", i), tk.view, tk.want)
	}
}

// TestSnapshotIsolationKnows: random inserts and deletes of Knows rows
// between existing persons really add and remove direct edges.
func TestSnapshotIsolationKnows(t *testing.T) {
	db := datagen.SNB(datagen.SNBConfig{Seed: 5, ScaleFactor: 0.01})
	prog, err := datalog.Parse(datagen.QueryKnows)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := New(db, prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	person, _ := db.Table("Person")
	knows, _ := db.Table("Knows")
	var persons []int64
	for _, row := range person.Rows {
		persons = append(persons, row[0].I)
	}
	rng := rand.New(rand.NewSource(6))
	checkSnapshotIsolation(t, lv, 60, func(int) {
		if rng.Intn(2) == 0 {
			a, b := persons[rng.Intn(len(persons))], persons[rng.Intn(len(persons))]
			if err := knows.Insert(relstore.IntVal(a), relstore.IntVal(b)); err != nil {
				t.Fatal(err)
			}
			return
		}
		victim := append([]relstore.Value(nil), knows.Rows[rng.Intn(knows.NumRows())]...)
		if ok, err := knows.Delete(victim...); err != nil || !ok {
			t.Fatalf("delete %v: ok=%v err=%v", victim, ok, err)
		}
	})
}

// TestSnapshotIsolationCoauthors: the two-segment co-author query wires
// virtual nodes, so inserts create them and deletes free them.
func TestSnapshotIsolationCoauthors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, ap := coauthorDB(t, rng, 12, 40)
	prog, err := datalog.Parse(coauthorQuery)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := New(db, prog, extract.Options{LargeOutputFactor: 2, ForceCondensed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	before := lv.Snapshot().NumVirtualSlots()
	checkSnapshotIsolation(t, lv, 80, func(int) {
		if rng.Intn(2) == 0 || ap.NumRows() == 0 {
			if err := ap.Insert(relstore.IntVal(int64(rng.Intn(12)+1)), relstore.IntVal(int64(rng.Intn(9)+1))); err != nil {
				t.Fatal(err)
			}
			return
		}
		victim := append([]relstore.Value(nil), ap.Rows[rng.Intn(ap.NumRows())]...)
		if ok, err := ap.Delete(victim...); err != nil || !ok {
			t.Fatalf("delete %v: ok=%v err=%v", victim, ok, err)
		}
	})
	g := lv.Snapshot()
	if g.NumVirtualSlots() == before || g.NumVirtualNodes() == g.NumVirtualSlots() {
		t.Fatalf("virtual slots %d -> %d (%d live): the run never created and freed a virtual node",
			before, g.NumVirtualSlots(), g.NumVirtualNodes())
	}
}
