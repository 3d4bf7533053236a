package graphgen

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"graphgen/internal/datagen"
	"graphgen/internal/graphapi"
)

// TestExtractLive walks the public live-maintenance workflow: extract once,
// mutate the relational tables, read the graph without re-extracting.
func TestExtractLive(t *testing.T) {
	db := demoDB(t)
	ap, err := db.Table("AuthorPub")
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(db, WithForceCondensed())
	lg, err := engine.ExtractLive(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	if !lg.ExistsEdge(1, 2) || lg.ExistsEdge(1, 4) {
		t.Fatal("initial live graph does not match the extraction")
	}
	if n := lg.NumVertices(); n != 5 {
		t.Fatalf("vertices = %d, want 5", n)
	}
	if name, ok := lg.PropertyOf(1, "Name"); !ok || name != "ann" {
		t.Fatalf("PropertyOf(1) = %q, %v", name, ok)
	}

	// A tuple insert shows up on the next read, no re-extraction.
	if err := ap.Insert(IntVal(1), IntVal(20)); err != nil {
		t.Fatal(err)
	}
	if lg.Pending() == 0 {
		t.Fatal("insert queued no deltas")
	}
	if !lg.ExistsEdge(1, 4) {
		t.Fatal("edge 1->4 missing after shared-pub insert")
	}
	// A delete severs only edges that lost their last support.
	if ok, err := ap.Delete(IntVal(1), IntVal(20)); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if lg.ExistsEdge(1, 4) {
		t.Fatal("edge 1->4 survived losing its only support")
	}
	if !lg.ExistsEdge(1, 2) {
		t.Fatal("unrelated edge 1->2 was damaged")
	}

	// The live graph rejects direct mutation: updates flow through tables.
	if err := lg.AddEdge(1, 5); !errors.Is(err, ErrLiveMutation) {
		t.Fatalf("AddEdge = %v, want ErrLiveMutation", err)
	}
	if err := lg.DeleteVertex(1); !errors.Is(err, ErrLiveMutation) {
		t.Fatalf("DeleteVertex = %v, want ErrLiveMutation", err)
	}

	// Snapshot detaches: analysis and conversion work on the copy while
	// the live graph keeps tracking.
	snap := lg.Snapshot()
	if _, err := snap.As(DEDUP1); err != nil {
		t.Fatal(err)
	}
	ap.Insert(IntVal(5), IntVal(10))
	if !lg.ExistsEdge(1, 5) {
		t.Fatal("live graph missed the post-snapshot insert")
	}
	if snap.ExistsEdge(1, 5) {
		t.Fatal("snapshot is not detached from maintenance")
	}
	if lg.MaintenanceStats().Transitions == 0 {
		t.Fatal("no maintenance transitions recorded")
	}

	// Close freezes the graph.
	lg.Close()
	ap.Insert(IntVal(4), IntVal(30))
	if lg.ExistsEdge(4, 5) {
		t.Fatal("closed live graph kept maintaining")
	}

	// Iterator-shaped reads satisfy the graph API.
	ids := graphapi.ToList(lg.Vertices())
	if len(ids) != 5 {
		t.Fatalf("Vertices yielded %d ids, want 5", len(ids))
	}
	if n := graphapi.Count(lg.Neighbors(3)); n == 0 {
		t.Fatal("Neighbors(3) is empty")
	}
}

// TestSnapshotConcurrentAnalyses runs a representation conversion and two
// analyses concurrently on one frozen live view and on one static graph.
// Under -race it pins that none of them writes the graph it reads: the
// DEDUP-1 input check and PageRank call MaxLayer, which used to tighten a
// traversal hint in place while ForNeighbors read it.
func TestSnapshotConcurrentAnalyses(t *testing.T) {
	engine := NewEngine(datagen.DBLPLike(3, 300, 240), WithForceCondensed())
	lg, err := engine.ExtractLive(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	static, err := engine.Extract(datagen.QueryCoauthors)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"frozen view": lg.Snapshot(), "static graph": static} {
		want, err := g.As(DEDUP1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, _ := g.Vertices().Next()
		wantVisited, wantDepth := g.BFS(src)
		_, wantComps := g.ConnectedComponents()
		errs := make(chan error, 12)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(3)
			go func() {
				defer wg.Done()
				d, err := g.As(DEDUP1)
				if err == nil && d.LogicalEdges() != want.LogicalEdges() {
					err = fmt.Errorf("DEDUP-1 has %d logical edges, want %d", d.LogicalEdges(), want.LogicalEdges())
				}
				errs <- err
			}()
			go func() {
				defer wg.Done()
				if v, d := g.BFS(src); v != wantVisited || d != wantDepth {
					errs <- fmt.Errorf("BFS reached %d at depth %d, want %d at %d", v, d, wantVisited, wantDepth)
				}
			}()
			go func() {
				defer wg.Done()
				if _, n := g.ConnectedComponents(); n != wantComps {
					errs <- fmt.Errorf("%d components, want %d", n, wantComps)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
