package relstore

import (
	"fmt"
	"testing"
)

func makeAuthors(t *testing.T) (*DB, *Table, *Table) {
	t.Helper()
	db := NewDB()
	author, err := db.Create("Author", Column{"id", Int}, Column{"name", String})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := db.Create("AuthorPub", Column{"aid", Int}, Column{"pid", Int})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"ann", "bob", "cat", "dan"} {
		if err := author.Insert(IntVal(int64(i+1)), StrVal(name)); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]int64{{1, 10}, {2, 10}, {3, 10}, {1, 20}, {4, 20}, {3, 30}}
	for _, p := range pairs {
		if err := ap.Insert(IntVal(p[0]), IntVal(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	return db, author, ap
}

func TestCreateAndLookup(t *testing.T) {
	db, author, _ := makeAuthors(t)
	if _, err := db.Create("Author", Column{"id", Int}); err == nil {
		t.Fatal("expected duplicate-table error")
	}
	got, err := db.Table("author") // case-insensitive
	if err != nil || got != author {
		t.Fatalf("Table lookup failed: %v", err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("expected missing-table error")
	}
	if names := db.TableNames(); len(names) != 2 || names[0] != "Author" {
		t.Fatalf("TableNames = %v", names)
	}
	if db.TotalRows() != 10 {
		t.Fatalf("TotalRows = %d, want 10", db.TotalRows())
	}
}

func TestInsertArity(t *testing.T) {
	_, author, _ := makeAuthors(t)
	if err := author.Insert(IntVal(9)); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestNDistinct(t *testing.T) {
	_, author, ap := makeAuthors(t)
	if d, err := author.NDistinct("id"); err != nil || d != 4 {
		t.Fatalf("NDistinct(id) = %d, %v", d, err)
	}
	if d, err := ap.NDistinct("pid"); err != nil || d != 3 {
		t.Fatalf("NDistinct(pid) = %d, %v", d, err)
	}
	if d, err := ap.NDistinct("aid"); err != nil || d != 4 {
		t.Fatalf("NDistinct(aid) = %d, %v", d, err)
	}
	if _, err := ap.NDistinct("nope"); err == nil {
		t.Fatal("expected missing-column error")
	}
	// Stats refresh after inserts.
	if err := ap.Insert(IntVal(2), IntVal(40)); err != nil {
		t.Fatal(err)
	}
	if d, _ := ap.NDistinct("pid"); d != 4 {
		t.Fatalf("stale stats: NDistinct(pid) = %d, want 4", d)
	}
}

func TestScanWithPredicates(t *testing.T) {
	_, _, ap := makeAuthors(t)
	if _, err := ap.CreateIndex("pid"); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Col: 1, Value: IntVal(10)}}
	want := refScan(ap, preds, []int{0}, []string{"a"})
	if len(want.Rows) != 3 {
		t.Fatalf("reference rows = %d, want 3", len(want.Rows))
	}
	checkModes(t, "scan pid=10", want, func(opts ExecOpts) (RowIter, error) {
		return NewScan(ap, preds, []int{0}, []string{"a"}, opts)
	})
	for _, opts := range execModes() {
		if _, err := NewScan(ap, preds, []int{5}, []string{"x"}, opts); err == nil {
			t.Fatal("expected out-of-range column error")
		}
		if _, err := NewScan(ap, preds, []int{0, 1}, []string{"x"}, opts); err == nil {
			t.Fatal("expected arity mismatch error")
		}
	}
}

func TestHashJoinSelfJoin(t *testing.T) {
	_, _, ap := makeAuthors(t)
	if _, err := ap.CreateIndex("pid"); err != nil {
		t.Fatal(err)
	}
	left := refScan(ap, nil, []int{0, 1}, []string{"a1", "p"})
	right := refScan(ap, nil, []int{0, 1}, []string{"a2", "p"})
	want := refJoin(left, right, []string{"p"})
	// pid 10 has 3 authors -> 9 pairs; pid 20 has 2 -> 4; pid 30 has 1 -> 1.
	if len(want.Rows) != 14 {
		t.Fatalf("reference join rows = %d, want 14", len(want.Rows))
	}
	checkModes(t, "join", want, func(opts ExecOpts) (RowIter, error) {
		return NewJoin(IterRel(left), IterRel(right), []string{"p"}, opts)
	})
	checkModes(t, "table join", want, func(opts ExecOpts) (RowIter, error) {
		return NewTableJoin(IterRel(left), ap, nil, []int{0, 1}, []string{"a2", "p"}, []string{"p"}, opts)
	})
	if _, err := NewJoin(IterRel(left), IterRel(right), []string{"nope"}, ExecOpts{}); err == nil {
		t.Fatal("expected missing join column error")
	}
}

func TestMultiJoinCompositeKey(t *testing.T) {
	a := &Rel{Cols: []string{"x", "y", "v"}, Rows: [][]Value{
		{IntVal(1), IntVal(1), StrVal("a")},
		{IntVal(1), IntVal(2), StrVal("b")},
	}}
	b := &Rel{Cols: []string{"x", "y", "w"}, Rows: [][]Value{
		{IntVal(1), IntVal(1), StrVal("p")},
		{IntVal(1), IntVal(2), StrVal("q")},
		{IntVal(2), IntVal(1), StrVal("r")},
	}}
	want := &Rel{Cols: []string{"x", "y", "v", "w"}, Rows: [][]Value{
		{IntVal(1), IntVal(1), StrVal("a"), StrVal("p")},
		{IntVal(1), IntVal(2), StrVal("b"), StrVal("q")},
	}}
	relsEqual(t, refJoin(a, b, []string{"x", "y"}), want, "reference")
	checkModes(t, "composite join", want, func(opts ExecOpts) (RowIter, error) {
		return NewJoin(IterRel(a), IterRel(b), []string{"x", "y"}, opts)
	})
}

func TestProjectDistinct(t *testing.T) {
	_, _, ap := makeAuthors(t)
	rel := refScan(ap, nil, []int{1}, []string{"p"})
	for _, tc := range []struct {
		distinct bool
		rows     int
	}{{true, 3}, {false, 6}} {
		want := refProject(rel, []string{"p"}, tc.distinct)
		if len(want.Rows) != tc.rows {
			t.Fatalf("distinct=%t: reference rows = %d, want %d", tc.distinct, len(want.Rows), tc.rows)
		}
		checkModes(t, fmt.Sprintf("project distinct=%t", tc.distinct), want, func(opts ExecOpts) (RowIter, error) {
			return NewProject(IterRel(rel), []string{"p"}, tc.distinct, opts)
		})
	}
	if _, err := NewProject(IterRel(rel), []string{"zzz"}, true, ExecOpts{}); err == nil {
		t.Fatal("expected missing-column error")
	}
}

func TestEstimateJoinOutput(t *testing.T) {
	_, _, ap := makeAuthors(t)
	est, err := EstimateJoinOutput(ap, "pid", ap, "pid")
	if err != nil {
		t.Fatal(err)
	}
	// 6*6/3 = 12 under uniformity.
	if est != 12 {
		t.Fatalf("estimate = %d, want 12", est)
	}
}

func TestValueStringAndEqual(t *testing.T) {
	if IntVal(3).Equal(StrVal("3")) {
		t.Fatal("cross-type values must not be equal")
	}
	if IntVal(3).String() != "3" || StrVal("x").String() != "x" {
		t.Fatal("String rendering wrong")
	}
	if !IntVal(-5).Equal(IntVal(-5)) || !StrVal("a").Equal(StrVal("a")) {
		t.Fatal("Equal broken")
	}
}

func TestDeleteAndDeleteWhere(t *testing.T) {
	_, _, ap := makeAuthors(t)
	before := ap.NumRows()
	// Duplicate row: delete removes exactly one copy.
	if err := ap.Insert(IntVal(1), IntVal(10)); err != nil {
		t.Fatal(err)
	}
	ok, err := ap.Delete(IntVal(1), IntVal(10))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v, want found", ok, err)
	}
	if ap.NumRows() != before {
		t.Fatalf("rows = %d, want %d", ap.NumRows(), before)
	}
	if ok, _ := ap.Delete(IntVal(99), IntVal(99)); ok {
		t.Fatal("Delete of a missing row reported found")
	}
	if _, err := ap.Delete(IntVal(1)); err == nil {
		t.Fatal("expected arity error")
	}
	n := ap.DeleteWhere(func(row []Value) bool { return row[1].I == 10 })
	if n != 3 {
		t.Fatalf("DeleteWhere removed %d rows, want 3", n)
	}
	if got := ap.NumRows() + n; got != before {
		t.Fatalf("rows+removed = %d, want %d", got, before)
	}
	// Deletion invalidates the statistics catalog.
	d, err := ap.NDistinct("pid")
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("pid distinct after delete = %d, want 2", d)
	}
}

func TestSubscribe(t *testing.T) {
	_, _, ap := makeAuthors(t)
	var log []Change
	cancel := ap.Subscribe(func(ch Change) { log = append(log, ch) })
	var other int
	cancelOther := ap.Subscribe(func(Change) { other++ })
	if err := ap.Insert(IntVal(7), IntVal(107)); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ap.Delete(IntVal(7), IntVal(107)); !ok {
		t.Fatal("delete failed")
	}
	if len(log) != 2 || log[0].Op != OpInsert || log[1].Op != OpDelete {
		t.Fatalf("change log = %+v, want insert then delete", log)
	}
	if !RowsEqual(log[0].Row, []Value{IntVal(7), IntVal(107)}) {
		t.Fatalf("insert row = %v", log[0].Row)
	}
	if other != 2 {
		t.Fatalf("second subscriber saw %d changes, want 2", other)
	}
	cancelOther()
	cancel()
	if err := ap.Insert(IntVal(8), IntVal(108)); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || other != 2 {
		t.Fatal("cancelled subscribers still notified")
	}
}

func TestSubscribeSlotReuse(t *testing.T) {
	_, _, ap := makeAuthors(t)
	for i := 0; i < 50; i++ {
		cancel := ap.Subscribe(func(Change) {})
		cancel()
		cancel() // double-cancel must not clobber a reused slot
	}
	if len(ap.subs) != 1 {
		t.Fatalf("subscriber slots = %d after 50 subscribe/cancel cycles, want 1", len(ap.subs))
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{StrVal("a"), StrVal("b"), -1},
		{StrVal("b"), StrVal("b"), 0},
		{StrVal("c"), StrVal("b"), 1},
		// Cross-type: Ints order before Strings, deterministically.
		{IntVal(999), StrVal(""), -1},
		{StrVal(""), IntVal(999), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDBAttach(t *testing.T) {
	base, _, ap := makeAuthors(t)
	overlay := NewDB()
	tables := base.TableNames()
	for _, name := range tables {
		tab, err := base.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := overlay.Attach(tab); err != nil {
			t.Fatal(err)
		}
	}
	// Shared storage: a row inserted through the base table is visible in
	// the overlay, and vice versa nothing is copied.
	got, err := overlay.Table(ap.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got != ap {
		t.Fatal("Attach copied the table instead of sharing it")
	}
	if err := overlay.Attach(ap); err == nil {
		t.Fatal("re-attaching an existing name must fail")
	}
	if _, err := overlay.Create("temp_p", Column{Name: "c0", Type: Int}); err != nil {
		t.Fatal(err)
	}
	if len(overlay.TableNames()) != len(tables)+1 {
		t.Fatalf("overlay tables = %v", overlay.TableNames())
	}
	if len(base.TableNames()) != len(tables) {
		t.Fatal("creating an overlay temp table leaked into the base DB")
	}
}

// TestJoinKeyDelimiterStrings: composite join keys must be unambiguous
// when string values contain the separator ("a|sb","c") vs ("a","b|sc").
func TestJoinKeyDelimiterStrings(t *testing.T) {
	a := &Rel{Cols: []string{"x", "y"}, Rows: [][]Value{
		{StrVal("a|sb"), StrVal("c")},
		{StrVal("a"), StrVal("b|sc")},
	}}
	b := &Rel{Cols: []string{"x", "y", "z"}, Rows: [][]Value{
		{StrVal("a|sb"), StrVal("c"), IntVal(1)},
	}}
	want := refJoin(a, b, []string{"x", "y"})
	if len(want.Rows) != 1 || !want.Rows[0][0].Equal(StrVal("a|sb")) {
		t.Fatalf("reference join = %v, want the one a|sb row", want.Rows)
	}
	checkModes(t, "delimiter join", want, func(opts ExecOpts) (RowIter, error) {
		return NewJoin(IterRel(a), IterRel(b), []string{"x", "y"}, opts)
	})
	// Distinct projection must keep both delimiter-twins.
	twins := refProject(a, []string{"x", "y"}, true)
	if len(twins.Rows) != 2 {
		t.Fatalf("reference distinct dropped a delimiter-twin: %d rows, want 2", len(twins.Rows))
	}
	checkModes(t, "delimiter distinct", twins, func(opts ExecOpts) (RowIter, error) {
		return NewProject(IterRel(a), []string{"x", "y"}, true, opts)
	})
}
