package relstore

import (
	"fmt"
	"strings"
)

// This file holds the materialized relation type (Rel) and the helpers
// the streaming operators (iter.go), the index layer (index.go) and the
// planner share: scan validation, key encoding, chunk merging, index
// choice and join-size estimation. The operators themselves are the
// RowIter constructors NewScan/NewSelect/NewJoin/NewTableJoin/NewCross/
// NewProject, configured by one ExecOpts; Collect materializes a
// pipeline into a Rel.

// Rel is a materialized intermediate relation, as returned by Collect.
// Column names are caller-assigned (usually Datalog variable names).
type Rel struct {
	Cols []string
	Rows [][]Value
}

// ColIndex returns the index of the named column in the relation. The
// match is exact (unlike Table.ColIndex): Rel columns carry Datalog
// variable names, which are case-sensitive — `x` and `X` are different
// variables, and folding them would silently turn an intended cross
// product into an equi-join.
func (r *Rel) ColIndex(name string) (int, bool) {
	for i, c := range r.Cols {
		if c == name {
			return i, true
		}
	}
	return 0, false
}

// Pred is a selection predicate: column index = constant.
type Pred struct {
	Col   int
	Value Value
}

// validateScan checks a scan's projection and predicate columns against
// the table schema, so malformed input is an error on every scan path
// (serial, parallel, and index-backed) instead of a worker-pool panic.
func validateScan(t *Table, preds []Pred, cols []int, names []string) error {
	if len(cols) != len(names) {
		return fmt.Errorf("relstore: scan of %s: %d cols, %d names", t.Name, len(cols), len(names))
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.Cols) {
			return fmt.Errorf("relstore: scan of %s: column %d out of range", t.Name, c)
		}
	}
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(t.Cols) {
			return fmt.Errorf("relstore: scan of %s: predicate column %d out of range", t.Name, p.Col)
		}
	}
	return nil
}

// hashKey encodes one value for composite join/distinct keys via the
// shared unambiguous encoding (Value.AppendKey).
func hashKey(v Value) string {
	var sb strings.Builder
	v.AppendKey(&sb)
	return sb.String()
}

// concatChunks merges per-chunk row slices in chunk order.
func concatChunks(chunks [][][]Value) [][]Value {
	switch len(chunks) {
	case 0:
		return nil
	case 1:
		return chunks[0]
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([][]Value, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// bestIndexedPred returns the index covering one of the equality
// predicates, preferring the most selective (largest distinct-key count),
// plus the position of that predicate in preds; nil if no predicate
// column is indexed.
func bestIndexedPred(t *Table, preds []Pred) (*Index, int) {
	var best *Index
	bi := -1
	for i, p := range preds {
		if ix := t.indexes[p.Col]; ix != nil && (best == nil || ix.NKeys() > best.NKeys()) {
			best, bi = ix, i
		}
	}
	return best, bi
}

// EstimateJoinOutput estimates the output cardinality of an equi-join of the
// two tables on the given attribute under the planner's uniformity
// assumption: |R||S| / max(d_R, d_S), where d is the distinct count of the
// join attribute.
func EstimateJoinOutput(left *Table, leftCol string, right *Table, rightCol string) (int64, error) {
	dl, err := left.NDistinct(leftCol)
	if err != nil {
		return 0, err
	}
	dr, err := right.NDistinct(rightCol)
	if err != nil {
		return 0, err
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d == 0 {
		return 0, nil
	}
	return int64(left.NumRows()) * int64(right.NumRows()) / int64(d), nil
}
