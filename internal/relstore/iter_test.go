package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// --- helpers ---

// randTable fills a table with random small-domain rows so joins hit and
// predicates select nontrivially.
func randTable(t *testing.T, db *DB, rng *rand.Rand, name string, cols []Column, n int) *Table {
	t.Helper()
	tbl, err := db.Create(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := make([]Value, len(cols))
		for j, c := range cols {
			if c.Type == Int {
				row[j] = IntVal(int64(rng.Intn(8)))
			} else {
				row[j] = StrVal(fmt.Sprintf("s%d", rng.Intn(5)))
			}
		}
		if err := tbl.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// --- streaming == materializing equivalence ---

// TestStreamingMaterializingEquivalence builds randomized
// scan→join→project plans and runs each twice: as one fused streaming
// pipeline, and with Materialize interposed after every operator (the
// NoStream oracle, which reproduces the old operator-at-a-time
// execution). The collected outputs must match row for row, across
// worker counts and index modes.
func TestStreamingMaterializingEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		db := NewDB()
		left := randTable(t, db, rng, "L",
			[]Column{{"a", Int}, {"b", Int}, {"s", String}}, 20+rng.Intn(60))
		right := randTable(t, db, rng, "R",
			[]Column{{"b", Int}, {"c", Int}}, 20+rng.Intn(60))
		if rng.Intn(2) == 0 {
			if _, err := right.CreateIndex("b"); err != nil {
				t.Fatal(err)
			}
		}
		var preds []Pred
		if rng.Intn(2) == 0 {
			preds = []Pred{{Col: 1, Value: IntVal(int64(rng.Intn(8)))}}
		}
		workers := []int{1, 1 + rng.Intn(4)}[rng.Intn(2)]
		useIndex := []IndexMode{IndexAuto, IndexOff}[rng.Intn(2)]
		distinct := rng.Intn(2) == 0

		build := func(stage func(RowIter) (RowIter, error)) (*Rel, error) {
			opts := ExecOpts{Workers: workers, UseIndex: useIndex}
			cur, err := NewScan(left, preds, []int{0, 1, 2}, []string{"a", "b", "s"}, opts)
			if err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			if cur, err = NewTableJoin(cur, right, nil, []int{0, 1}, []string{"b", "c"}, []string{"b"}, opts); err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			if cur, err = NewProject(cur, []string{"a", "c"}, distinct, opts); err != nil {
				return nil, err
			}
			if cur, err = stage(cur); err != nil {
				return nil, err
			}
			return Collect(cur)
		}
		streamed, err := build(func(it RowIter) (RowIter, error) { return it, nil })
		if err != nil {
			t.Fatalf("trial %d: streaming: %v", trial, err)
		}
		materialized, err := build(func(it RowIter) (RowIter, error) { return Materialize(it, nil) })
		if err != nil {
			t.Fatalf("trial %d: materializing: %v", trial, err)
		}
		relsEqual(t, streamed, materialized,
			fmt.Sprintf("trial %d (workers=%d index=%d distinct=%t)", trial, workers, useIndex, distinct))
	}
}

// --- mid-stream error propagation ---

// failIter yields good rows, then fails. It records whether Close ran.
type failIter struct {
	cols   []string
	rows   [][]Value
	pos    int
	err    error
	closed int
}

func (f *failIter) Cols() []string { return f.cols }

func (f *failIter) Next() (Row, bool, error) {
	if f.pos >= len(f.rows) {
		return nil, false, f.err
	}
	f.pos++
	return f.rows[f.pos-1], true, nil
}

func (f *failIter) Close() error {
	f.closed++
	return nil
}

var errMidStream = errors.New("mid-stream failure")

// TestErrorPropagation drives a failing source through every operator
// shape and asserts Collect surfaces the error, the source is closed
// exactly once (the constructor owns its inputs), and — run under -race
// in CI — no worker goroutines leak past the failure.
func TestErrorPropagation(t *testing.T) {
	goodRows := func(n int) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{IntVal(int64(i % 4)), IntVal(int64(i))}
		}
		return rows
	}
	probe := &Rel{Cols: []string{"k", "v"}, Rows: goodRows(8)}

	shapes := []struct {
		name  string
		build func(src *failIter) (RowIter, error)
	}{
		{"filter", func(src *failIter) (RowIter, error) {
			return NewFilter(src, ExecOpts{Workers: 3}, func(Row) bool { return true }), nil
		}},
		{"project", func(src *failIter) (RowIter, error) {
			return NewProject(src, []string{"k"}, false, ExecOpts{Workers: 3})
		}},
		{"distinct", func(src *failIter) (RowIter, error) {
			return NewProject(src, []string{"k"}, true, ExecOpts{Workers: 1})
		}},
		{"join build side", func(src *failIter) (RowIter, error) {
			return NewJoin(src, IterRel(probe), []string{"k"}, ExecOpts{Workers: 2})
		}},
		{"join probe side", func(src *failIter) (RowIter, error) {
			return NewJoin(IterRel(probe), src, []string{"k"}, ExecOpts{Workers: 2})
		}},
		{"cross", func(src *failIter) (RowIter, error) {
			return NewCross(IterRel(probe), src, ExecOpts{Workers: 2}), nil
		}},
		{"collect direct", func(src *failIter) (RowIter, error) { return src, nil }},
	}
	for _, nRows := range []int{0, 3, 2500} { // below and above one expand window
		for _, shape := range shapes {
			src := &failIter{cols: []string{"k", "v"}, rows: goodRows(nRows), err: errMidStream}
			it, err := shape.build(src)
			if err != nil {
				t.Fatalf("%s/%d: constructor: %v", shape.name, nRows, err)
			}
			if _, err := Collect(it); !errors.Is(err, errMidStream) {
				t.Fatalf("%s/%d: Collect error = %v, want errMidStream", shape.name, nRows, err)
			}
			if src.closed != 1 {
				t.Fatalf("%s/%d: source closed %d times, want exactly once", shape.name, nRows, src.closed)
			}
		}
	}
}

// TestConstructorErrorClosesInputs: a constructor that rejects its
// arguments must close the iterators it was handed — the caller has no
// handle left to do it.
func TestConstructorErrorClosesInputs(t *testing.T) {
	mk := func() *failIter { return &failIter{cols: []string{"k"}, rows: nil, err: nil} }

	a, b := mk(), mk()
	if _, err := NewJoin(a, b, []string{"missing"}, ExecOpts{}); err == nil {
		t.Fatal("join with missing column succeeded")
	}
	if a.closed != 1 || b.closed != 1 {
		t.Fatalf("join error left inputs open: a=%d b=%d", a.closed, b.closed)
	}

	c := mk()
	if _, err := NewProject(c, []string{"missing"}, false, ExecOpts{}); err == nil {
		t.Fatal("project with missing column succeeded")
	}
	if c.closed != 1 {
		t.Fatalf("project error left input open: %d", c.closed)
	}
}

// --- tracker accounting ---

// TestTrackerReleasesOnClose: Materialize charges the tracker for the
// staged rows and Close refunds them — afterwards a small acquisition
// must not push the peak past the staged high-water mark.
func TestTrackerReleasesOnClose(t *testing.T) {
	tr := NewTracker()
	rel := &Rel{Cols: []string{"x"}, Rows: make([][]Value, 10)}
	for i := range rel.Rows {
		rel.Rows[i] = []Value{IntVal(int64(i))}
	}
	it, err := Materialize(IterRel(rel), tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Peak() != 10 {
		t.Fatalf("peak after materialize = %d, want 10", tr.Peak())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Acquire(5)
	if tr.Peak() != 10 {
		t.Fatalf("peak after close+reacquire = %d, want 10 (close did not release)", tr.Peak())
	}
	tr.Release(5)
}

// TestTrackerCountsJoinBuildSide: a streaming join's held state is its
// build side, and it is refunded when the join closes.
func TestTrackerCountsJoinBuildSide(t *testing.T) {
	tr := NewTracker()
	build := &Rel{Cols: []string{"k"}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}, {IntVal(3)}}}
	probe := &Rel{Cols: []string{"k"}, Rows: [][]Value{{IntVal(1)}, {IntVal(2)}}}
	it, err := NewJoin(IterRel(build), IterRel(probe), []string{"k"}, ExecOpts{Workers: 1, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(out.Rows))
	}
	if tr.Peak() != 3 {
		t.Fatalf("peak = %d, want 3 (the build side)", tr.Peak())
	}
	tr.Acquire(1)
	if tr.Peak() != 3 {
		t.Fatalf("peak after close+reacquire = %d: build side not released", tr.Peak())
	}
}

// TestNilTrackerIsSafe: every operator takes a nil Tracker.
func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.Acquire(5)
	tr.Release(5)
	if tr.Peak() != 0 {
		t.Fatal("nil tracker peak")
	}
}
