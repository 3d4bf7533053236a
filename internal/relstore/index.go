package relstore

import (
	"fmt"
	"sort"
)

// This file is the secondary-index subsystem: per-column hash indexes that
// map an encoded column value to the rows carrying it, kept exactly
// consistent with the table under Insert/Delete/DeleteWhere through the
// same choke point that feeds the change log (notify). The access paths
// that exploit them are NewScan and NewTableJoin (iter.go), under
// ExecOpts.UseIndex. The paper's extraction queries lean on PostgreSQL's indexes
// for their equality-predicate scans and equi-joins; these are the
// relstore substrate's equivalent, so that repeated extractions, the
// semi-naive delta rounds, and live-graph delta evaluation stop paying a
// full table scan per predicate.

// indexEntry is one indexed row tagged with its table-order sequence
// number. Sequence numbers increase monotonically per index; because
// Delete and DeleteWhere preserve the relative order of surviving rows,
// ascending sequence order inside (and across) buckets is exactly table
// row order, which is what lets the index-backed operators reproduce the
// scan operators' output row-for-row.
type indexEntry struct {
	seq uint64
	row []Value
}

// Index is a hash index over one column of a Table: encoded column value
// (Value.AppendKey) -> the rows holding it, in table order. Indexes are
// maintained inside the table's mutation path (before change-log
// subscribers run, so a subscriber that reads through an index always
// observes the post-change state) and live as long as the table, which is
// what makes them reusable across extractions, semi-naive delta rounds,
// and live-graph rebuilds. Like tables, indexes are not internally
// synchronized.
type Index struct {
	t   *Table
	col int
	// graphlint:guardedby external:dbMu
	next uint64
	// graphlint:guardedby external:dbMu
	buckets map[string][]indexEntry
}

// CreateIndex builds (or returns, if one already exists) a hash index on
// the named column. Building is O(rows); maintenance is O(1) per insert
// and O(bucket) per delete, piggybacked on the mutation path that also
// feeds the change log.
func (t *Table) CreateIndex(col string) (*Index, error) {
	i, ok := t.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relstore: %s has no column %q", t.Name, col)
	}
	if ix := t.indexes[i]; ix != nil {
		return ix, nil
	}
	ix := &Index{t: t, col: i, buckets: make(map[string][]indexEntry)}
	for _, row := range t.Rows {
		k := hashKey(row[i])
		ix.buckets[k] = append(ix.buckets[k], indexEntry{seq: ix.next, row: row})
		ix.next++
	}
	if t.indexes == nil {
		t.indexes = make(map[int]*Index)
	}
	t.indexes[i] = ix
	return ix, nil
}

// Index returns the index on the named column, or nil if none exists.
func (t *Table) Index(col string) *Index {
	i, ok := t.ColIndex(col)
	if !ok {
		return nil
	}
	return t.indexes[i]
}

// IndexedColumns returns the names of the indexed columns, sorted.
func (t *Table) IndexedColumns() []string {
	out := make([]string, 0, len(t.indexes))
	for i := range t.indexes {
		out = append(out, t.Cols[i].Name)
	}
	sort.Strings(out)
	return out
}

// apply keeps the index consistent with one single-tuple change. It runs
// inside the table's mutation path, after the row storage has changed and
// before change-log subscribers are notified.
func (ix *Index) apply(ch Change) {
	k := hashKey(ch.Row[ix.col])
	if ch.Op == OpInsert {
		ix.buckets[k] = append(ix.buckets[k], indexEntry{seq: ix.next, row: ch.Row})
		ix.next++
		return
	}
	bucket := ix.buckets[k]
	for i, e := range bucket {
		// Remove the first full-tuple match: the table's Delete removed its
		// first matching row, and bucket order mirrors table order, so this
		// is the same (value-equal) row.
		if RowsEqual(e.row, ch.Row) {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(ix.buckets, k)
			} else {
				ix.buckets[k] = bucket
			}
			return
		}
	}
}

// Lookup returns the rows whose indexed column equals v, in table order.
// The returned rows are the table's storage; callers must not mutate them.
func (ix *Index) Lookup(v Value) [][]Value {
	bucket := ix.buckets[hashKey(v)]
	if len(bucket) == 0 {
		return nil
	}
	out := make([][]Value, len(bucket))
	for i, e := range bucket {
		out[i] = e.row
	}
	return out
}

// NKeys returns the number of distinct values in the indexed column —
// maintained incrementally, so it is the O(1) form of the catalog's
// NDistinct for indexed columns.
func (ix *Index) NKeys() int { return len(ix.buckets) }

// Column returns the indexed column's name.
func (ix *Index) Column() string { return ix.t.Cols[ix.col].Name }

// Len returns the number of indexed rows (the table cardinality).
func (ix *Index) Len() int {
	n := 0
	for _, b := range ix.buckets {
		n += len(b)
	}
	return n
}
