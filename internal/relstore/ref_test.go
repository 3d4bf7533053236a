package relstore

import (
	"fmt"
	"slices"
	"testing"
)

// This file is the independent reference the operator tests compare
// against: brute-force nested loops over materialized rows, with no hash
// tables, key encoding, indexes or worker pools. Each function emits rows
// in the order the operator contract fixes: scans in table order; joins
// and cross products b-major, with a's row order inside each b row;
// distinct projections keep each row's first occurrence.

// refScan filters t's rows by the equality predicates and projects cols
// under names.
func refScan(t *Table, preds []Pred, cols []int, names []string) *Rel {
	out := &Rel{Cols: append([]string(nil), names...)}
rows:
	for _, row := range t.Rows {
		for _, p := range preds {
			if !row[p.Col].Equal(p.Value) {
				continue rows
			}
		}
		proj := make([]Value, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		out.Rows = append(out.Rows, proj)
	}
	return out
}

// refJoin equi-joins a and b on the shared column names: a's columns,
// then b's minus the shared ones. With no shared columns it is the cross
// product.
func refJoin(a, b *Rel, shared []string) *Rel {
	out := &Rel{Cols: append([]string(nil), a.Cols...)}
	for _, c := range b.Cols {
		if !slices.Contains(shared, c) {
			out.Cols = append(out.Cols, c)
		}
	}
	for _, brow := range b.Rows {
	pairs:
		for _, arow := range a.Rows {
			for _, c := range shared {
				ai, _ := a.ColIndex(c)
				bi, _ := b.ColIndex(c)
				if !arow[ai].Equal(brow[bi]) {
					continue pairs
				}
			}
			row := append([]Value(nil), arow...)
			for j, c := range b.Cols {
				if !slices.Contains(shared, c) {
					row = append(row, brow[j])
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// refProject restricts r to the named columns, dropping repeated rows
// when distinct is set.
func refProject(r *Rel, cols []string, distinct bool) *Rel {
	out := &Rel{Cols: append([]string(nil), cols...)}
rows:
	for _, row := range r.Rows {
		proj := make([]Value, len(cols))
		for i, c := range cols {
			j, _ := r.ColIndex(c)
			proj[i] = row[j]
		}
		if distinct {
			for _, seen := range out.Rows {
				if RowsEqual(seen, proj) {
					continue rows
				}
			}
		}
		out.Rows = append(out.Rows, proj)
	}
	return out
}

// execModes is the access-path × parallelism matrix the operator tests
// run: neither the index choice nor the worker count may change a
// result.
func execModes() []ExecOpts {
	var out []ExecOpts
	for _, m := range []IndexMode{IndexOff, IndexAuto, IndexForce} {
		for _, w := range []int{1, 3} {
			out = append(out, ExecOpts{Workers: w, UseIndex: m})
		}
	}
	return out
}

// checkModes builds a pipeline under every execModes entry, collects it,
// and compares it row for row with want.
func checkModes(t *testing.T, label string, want *Rel, build func(ExecOpts) (RowIter, error)) {
	t.Helper()
	for _, opts := range execModes() {
		ctx := fmt.Sprintf("%s (index=%d workers=%d)", label, opts.UseIndex, opts.Workers)
		it, err := build(opts)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		got, err := Collect(it)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		relsEqual(t, got, want, ctx)
	}
}
