package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"graphgen/internal/obs"
	"graphgen/internal/parallel"
)

// This file is the operator layer: composable pull-based iterators over
// rows, the one API for every scan, selection, join, cross product and
// projection. Peak memory of a pipeline is what its operators *hold*,
// not the sum of every intermediate relation: a scan holds a window, a
// join holds its build side, distinct holds its seen-set. Collect
// materializes a pipeline; Materialize interposed after every operator
// is the operator-at-a-time oracle (extract/datalogeval NoStream) the
// equivalence suites compare the fused pipeline against.
//
// Contracts every iterator obeys:
//
//   - Pull model: Next returns (row, true, nil) per row; (nil, false, nil)
//     at exhaustion; (nil, false, err) on failure. After either false,
//     Next must not be called again.
//   - Close is idempotent, releases operator-held memory, and closes the
//     iterator's inputs. A constructor that returns an error has already
//     closed the inputs it was given; a constructor that succeeds owns
//     them. Consequently a pipeline has exactly one Close obligation: its
//     head. Collect discharges it.
//   - Rows handed out by Next may alias table storage or be shared with
//     other consumers; callers must not mutate them.
//   - Source iterators capture their row-slice headers at construction
//     (for the lazy build/gather stages: at first Next, which is before
//     the pipeline has yielded any row). Rows appended to a table while a
//     pipeline drains are invisible to it — the semi-naive loop relies on
//     exactly this to evaluate a recursive body against the pre-insert
//     state while inserting head tuples. Deletes do NOT enjoy this
//     guarantee (table and index storage shifts in place); drain or close
//     pipelines before deleting from their source tables.
//   - Order is deterministic and worker-count independent: parallel
//     stages fan contiguous windows across the worker pool and merge in
//     window order, so ExecOpts.Workers is purely a throughput knob.

// Row is one tuple flowing through a pipeline.
type Row = []Value

// RowIter is the pull-based operator interface.
type RowIter interface {
	// Cols returns the output schema (caller-assigned column names,
	// usually Datalog variables). Stable across the iterator's lifetime.
	Cols() []string
	// Next returns the next row. ok=false ends the stream: with a nil
	// error it is exhausted, otherwise it failed. Either way the caller
	// must not call Next again (Close is still required).
	Next() (Row, bool, error)
	// Close releases operator-held memory and closes the inputs.
	// Idempotent.
	Close() error
}

// IndexMode selects the access path for table scans and table joins.
type IndexMode uint8

const (
	// IndexAuto costs the index path against the parallel scan (the
	// planner's rules, see NewScan and NewTableJoin) and picks the
	// cheaper one.
	IndexAuto IndexMode = iota
	// IndexOff always walks the table.
	IndexOff
	// IndexForce requires an index and always probes it; constructors
	// error if no predicate/join column is indexed. It is the hook the
	// index ≡ scan tests use to pin the index path; production callers
	// use IndexAuto or IndexOff.
	IndexForce
)

// ExecOpts carries the execution knobs every operator constructor takes.
// The zero value — Workers 0 resolves to GOMAXPROCS, auto index choice,
// no tracking — is a sensible default.
type ExecOpts struct {
	// Workers partitions parallel stages; <=0 means GOMAXPROCS. Output
	// order never depends on it.
	Workers int
	// UseIndex selects the access path for scans and table joins.
	UseIndex IndexMode
	// Tracker, when non-nil, accounts the rows operators hold
	// materialized (build sides, distinct seen-sets, bucket gathers —
	// and, in the NoStream oracle mode, whole staged relations).
	Tracker *Tracker
	// Trace, when non-nil, collects one span per operator constructed
	// under these opts: kind, strategy, rows out, batches, wall time.
	// Nil (the default) is the zero-overhead fast path — constructors
	// test this one pointer and skip the span machinery entirely.
	Trace *obs.Trace
}

// Tracker accounts materialized intermediate rows across a pipeline (or
// several: extraction shares one tracker across all segment pipelines of
// a plan). Acquire/Release are cheap atomics so parallel stages can share
// one; Peak is the high-water mark that lands in extraction and Datalog
// EvalStats as PeakIntermediateRows. A nil *Tracker is valid and counts
// nothing.
type Tracker struct {
	cur, peak atomic.Int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Acquire records n rows becoming operator-resident.
func (t *Tracker) Acquire(n int) {
	if t == nil || n == 0 {
		return
	}
	c := t.cur.Add(int64(n))
	for {
		p := t.peak.Load()
		if c <= p || t.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Release records n rows being dropped.
func (t *Tracker) Release(n int) {
	if t == nil || n == 0 {
		return
	}
	t.cur.Add(-int64(n))
}

// Peak returns the high-water mark of resident rows.
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	return t.peak.Load()
}

// Collect drains it into a materialized relation, closes it, and returns
// the relation — the single materialization boundary of a pipeline. On a
// mid-stream error the pipeline is still closed and the error returned.
func Collect(it RowIter) (*Rel, error) {
	out := &Rel{Cols: append([]string(nil), it.Cols()...)}
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Materialize eagerly drains it, tracks the materialized rows against tr
// until the returned iterator is closed, and replays the rows. This is
// the NoStream oracle mode's stage boundary: interposing Materialize
// after every operator reproduces operator-at-a-time execution — and its
// peak-memory profile — exactly.
func Materialize(it RowIter, tr *Tracker) (RowIter, error) {
	rel, err := Collect(it)
	if err != nil {
		return nil, err
	}
	n := len(rel.Rows)
	tr.Acquire(n)
	return &sliceIter{cols: rel.Cols, rows: rel.Rows, onClose: func() { tr.Release(n) }}, nil
}

// IterRel returns an iterator replaying a materialized relation.
func IterRel(r *Rel) RowIter { return &sliceIter{cols: r.Cols, rows: r.Rows} }

// IterRelTracked replays r while accounting its rows against tr from now
// until the iterator closes — the building block for callers that
// materialize a stage themselves (to inspect its cardinality) and still
// want the NoStream peak accounting Materialize provides.
func IterRelTracked(r *Rel, tr *Tracker) RowIter {
	n := len(r.Rows)
	tr.Acquire(n)
	return &sliceIter{cols: r.Cols, rows: r.Rows, onClose: func() { tr.Release(n) }}
}

// IterRows returns an iterator replaying rows under the given schema.
func IterRows(cols []string, rows [][]Value) RowIter {
	return &sliceIter{cols: cols, rows: rows}
}

// sliceIter replays a row slice captured at construction.
type sliceIter struct {
	cols    []string
	rows    [][]Value
	pos     int
	onClose func()
	closed  bool
}

func (it *sliceIter) Cols() []string { return it.cols }

func (it *sliceIter) Next() (Row, bool, error) {
	if it.pos >= len(it.rows) {
		return nil, false, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, true, nil
}

func (it *sliceIter) Close() error {
	if !it.closed {
		it.closed = true
		if it.onClose != nil {
			it.onClose()
		}
	}
	return nil
}

// closeAll closes every non-nil input; used by constructors on their
// error paths so a failed constructor leaves no Close obligation behind.
func closeAll(its ...RowIter) {
	for _, it := range its {
		if it != nil {
			it.Close()
		}
	}
}

// expandWindow is the per-worker window size of parallel stages. Windows
// bound the rows a stage holds in flight; boundaries affect only
// batching, never output order, so results are worker-count independent.
const expandWindow = 1024

// expandIter streams src through a pure per-row expansion kernel (emit
// zero or more output rows per input row), fanning each window of input
// rows across the worker pool and concatenating per-chunk outputs in
// chunk order, so output order never depends on the worker count.
type expandIter struct {
	cols    []string
	src     RowIter
	workers int
	window  int
	fn      func(Row, func(Row))
	in      [][]Value
	buf     [][]Value
	bufPos  int
	nbatch  int64
	srcDone bool
	closed  bool
}

func newExpandIter(cols []string, src RowIter, workers int, fn func(Row, func(Row))) *expandIter {
	w := parallel.Resolve(workers)
	return &expandIter{cols: cols, src: src, workers: w, window: w * expandWindow, fn: fn}
}

func (it *expandIter) Cols() []string { return it.cols }

func (it *expandIter) Next() (Row, bool, error) {
	for {
		if it.bufPos < len(it.buf) {
			r := it.buf[it.bufPos]
			it.bufPos++
			return r, true, nil
		}
		if it.srcDone {
			return nil, false, nil
		}
		it.in = it.in[:0]
		for len(it.in) < it.window {
			row, ok, err := it.src.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				it.srcDone = true
				break
			}
			it.in = append(it.in, row)
		}
		if len(it.in) == 0 {
			continue
		}
		it.nbatch++
		chunks := parallel.MapChunks(len(it.in), it.workers, 0, func(lo, hi int) [][]Value {
			var out [][]Value
			emit := func(r Row) { out = append(out, r) }
			for _, row := range it.in[lo:hi] {
				it.fn(row, emit)
			}
			return out
		})
		it.buf, it.bufPos = concatChunks(chunks), 0
	}
}

func (it *expandIter) batches() int64 { return it.nbatch }

func (it *expandIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.in, it.buf = nil, nil
	return it.src.Close()
}

// selectFn is the scan kernel: constant-predicate filter, repeated-
// variable equality filter, then projection of cols under the output
// schema. Shared by the table walk, the index-bucket walk, and NewSelect.
func selectFn(preds []Pred, equalities [][2]int, cols []int) func(Row, func(Row)) {
	return func(row Row, emit func(Row)) {
		for _, p := range preds {
			if !row[p.Col].Equal(p.Value) {
				return
			}
		}
		for _, eq := range equalities {
			if !row[eq[0]].Equal(row[eq[1]]) {
				return
			}
		}
		proj := make([]Value, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		emit(proj)
	}
}

// NewScan streams a table scan: equality predicates pushed into the row
// walk, projecting the listed column indexes under the given names. The
// access path follows opts.UseIndex: IndexAuto costs the index against
// the parallel scan — an equality predicate over a column with d
// distinct values touches ~N/d rows through the index versus ~N/workers
// per worker for the scan, so the index wins once d reaches twice the
// resolved worker count — IndexForce requires an indexed predicate
// column and walks the most selective bucket (the driving predicate
// needs no re-check — the bucket key encoding is injective), IndexOff
// always walks the table. All paths yield identical rows in table order.
func NewScan(t *Table, preds []Pred, cols []int, names []string, opts ExecOpts) (RowIter, error) {
	if err := validateScan(t, preds, cols, names); err != nil {
		return nil, err
	}
	useIndex := false
	ix, pi := (*Index)(nil), -1
	if opts.UseIndex != IndexOff {
		ix, pi = bestIndexedPred(t, preds)
		switch opts.UseIndex {
		case IndexForce:
			if ix == nil {
				return nil, fmt.Errorf("relstore: indexed scan of %s: no index on any predicate column", t.Name)
			}
			useIndex = true
		case IndexAuto:
			useIndex = ix != nil && ix.NKeys() >= 2*parallel.Resolve(opts.Workers)
		}
	}
	outCols := append([]string(nil), names...)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("scan", t.Name)
		if useIndex {
			sp.SetStrategy("index")
		} else {
			sp.SetStrategy("table")
		}
	}
	if useIndex {
		rest := make([]Pred, 0, len(preds)-1)
		for i, p := range preds {
			if i != pi {
				rest = append(rest, p)
			}
		}
		src := &bucketIter{bucket: ix.buckets[hashKey(preds[pi].Value)]}
		return traced(newExpandIter(outCols, src, 1, selectFn(rest, nil, cols)), sp), nil
	}
	return traced(newExpandIter(outCols, IterRows(nil, t.Rows), opts.Workers, selectFn(preds, nil, cols)), sp), nil
}

// bucketIter walks one index bucket's rows in seq (= table) order,
// without copying the bucket. The bucket slice header is captured at
// construction: concurrent inserts append (or replace the map value) and
// stay invisible.
type bucketIter struct {
	bucket []indexEntry
	pos    int
}

func (it *bucketIter) Cols() []string { return nil }

func (it *bucketIter) Next() (Row, bool, error) {
	if it.pos >= len(it.bucket) {
		return nil, false, nil
	}
	r := it.bucket[it.pos].row
	it.pos++
	return r, true, nil
}

func (it *bucketIter) Close() error { return nil }

// NewSelect streams selection+projection over an explicit row slice (a
// delta batch, a table's rows, a change-log window): constant predicates
// and repeated-variable equalities filter, cols project under names.
// This is the one-pass form of the wide-scan+filter+project sequence the
// pattern compilers used to materialize.
func NewSelect(rows [][]Value, preds []Pred, equalities [][2]int, cols []int, names []string, opts ExecOpts) RowIter {
	outCols := append([]string(nil), names...)
	it := newExpandIter(outCols, IterRows(nil, rows), opts.Workers, selectFn(preds, equalities, cols))
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("select", ""))
}

// NewFilter streams src through a row predicate, keeping the schema.
// keep must be pure (it runs concurrently across a window).
func NewFilter(src RowIter, opts ExecOpts, keep func(Row) bool) RowIter {
	it := newExpandIter(src.Cols(), src, opts.Workers, func(row Row, emit func(Row)) {
		if keep(row) {
			emit(row)
		}
	})
	if opts.Trace == nil {
		return it
	}
	return traced(it, opts.Trace.StartSpan("filter", ""))
}

// joinKey encodes the composite join key of row at the given column
// positions via the shared injective encoding, so key equality is value
// equality and probes need no re-check.
func joinKey(row []Value, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		row[i].AppendKey(&sb)
		sb.WriteByte('|')
	}
	return sb.String()
}

// buildProbeIter is the shared shape of the streaming binary operators:
// the build input drains into operator state at the first Next (before
// any output row exists), then the probe input streams through a kernel
// constructed from the drained rows. The build rows are tracked as
// operator-resident until Close.
type buildProbeIter struct {
	cols         []string
	build, probe RowIter
	opts         ExecOpts
	mk           func(buildRows [][]Value) func(Row, func(Row))
	inner        RowIter
	held         int
	failed       error
	closed       bool
}

func (it *buildProbeIter) Cols() []string { return it.cols }

func (it *buildProbeIter) Next() (Row, bool, error) {
	if it.failed != nil {
		return nil, false, it.failed
	}
	if it.inner == nil {
		var rows [][]Value
		for {
			row, ok, err := it.build.Next()
			if err != nil {
				it.failed = err
				return nil, false, err
			}
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		it.build.Close()
		it.held = len(rows)
		it.opts.Tracker.Acquire(it.held)
		it.inner = newExpandIter(it.cols, it.probe, it.opts.Workers, it.mk(rows))
	}
	return it.inner.Next()
}

func (it *buildProbeIter) batches() int64 {
	if bc, ok := it.inner.(batchCounter); ok {
		return bc.batches()
	}
	return 0
}

func (it *buildProbeIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.opts.Tracker.Release(it.held)
	it.held = 0
	err := it.build.Close()
	if it.inner != nil {
		if e := it.inner.Close(); err == nil {
			err = e
		}
	} else if e := it.probe.Close(); err == nil {
		err = e
	}
	return err
}

// NewJoin streams the equi-join of a and b on all shared column names (a
// composite key): a (the build side) drains into a hash table, b (the
// probe side) streams through it. Output: a's columns then b's minus
// the shared ones; rows in b-major order with a's row order inside each
// b row. An empty shared list is an error — explicit cross products use
// NewCross.
func NewJoin(a, b RowIter, shared []string, opts ExecOpts) (RowIter, error) {
	acols, bcols := a.Cols(), b.Cols()
	if len(shared) == 0 {
		closeAll(a, b)
		return nil, fmt.Errorf("relstore: join of %v with %v has no shared columns (use NewCross for an explicit cross product)", acols, bcols)
	}
	ai := make([]int, len(shared))
	bi := make([]int, len(shared))
	bShared := make([]bool, len(bcols))
	for k, c := range shared {
		i, ok := colIndex(acols, c)
		if !ok {
			closeAll(a, b)
			return nil, fmt.Errorf("relstore: join column %q not in left relation %v", c, acols)
		}
		j, ok := colIndex(bcols, c)
		if !ok {
			closeAll(a, b)
			return nil, fmt.Errorf("relstore: join column %q not in right relation %v", c, bcols)
		}
		ai[k], bi[k] = i, j
		bShared[j] = true
	}
	cols := append([]string(nil), acols...)
	for j, c := range bcols {
		if !bShared[j] {
			cols = append(cols, c)
		}
	}
	nOut := len(cols)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("join", strings.Join(shared, ","))
		sp.SetStrategy("hash build=left")
	}
	return traced(&buildProbeIter{cols: cols, build: a, probe: b, opts: opts,
		mk: func(rows [][]Value) func(Row, func(Row)) {
			table := make(map[string][][]Value, len(rows))
			for _, row := range rows {
				k := joinKey(row, ai)
				table[k] = append(table[k], row)
			}
			return func(brow Row, emit func(Row)) {
				for _, arow := range table[joinKey(brow, bi)] {
					joined := make([]Value, 0, nOut)
					joined = append(joined, arow...)
					for j, v := range brow {
						if !bShared[j] {
							joined = append(joined, v)
						}
					}
					emit(joined)
				}
			}
		}}, sp), nil
}

// NewCross streams the cross product: a drains, b streams, one output
// row per (a row, b row) pair in b-major order with a's row order inside each b row.
func NewCross(a, b RowIter, opts ExecOpts) RowIter {
	cols := append(append([]string(nil), a.Cols()...), b.Cols()...)
	nOut := len(cols)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("cross", "")
		sp.SetStrategy("build=left")
	}
	return traced(&buildProbeIter{cols: cols, build: a, probe: b, opts: opts,
		mk: func(rows [][]Value) func(Row, func(Row)) {
			return func(brow Row, emit func(Row)) {
				for _, arow := range rows {
					joined := make([]Value, 0, nOut)
					joined = append(joined, arow...)
					joined = append(joined, brow...)
					emit(joined)
				}
			}
		}}, sp)
}

// NewTableJoin streams the equi-join of cur against the
// selection+projection of table t on the shared columns, deferring the
// access-path choice until cur has drained and its exact cardinality is
// known: the planner's index-probe-vs-scan rule.
// preds/cols/names describe the t side exactly as for NewScan; each
// shared name must appear in names (bound to a table column) and in
// cur's schema.
//
// With a single shared column whose table column carries a persistent
// hash index, and 2·|cur| ≤ distinct keys (or IndexForce), the probe
// gathers only the index buckets matching cur's join values, sorts them
// back into table order by sequence number, and streams those entries;
// otherwise t is scanned (NewScan with the same opts) and probed against
// the hash table on cur. Both paths produce identical output: cur's
// columns then names minus the shared ones, in table-major order with
// cur's row order inside.
func NewTableJoin(cur RowIter, t *Table, preds []Pred, cols []int, names []string, shared []string, opts ExecOpts) (RowIter, error) {
	if err := validateScan(t, preds, cols, names); err != nil {
		closeAll(cur)
		return nil, err
	}
	curCols := cur.Cols()
	ci := make([]int, len(shared))
	ni := make([]int, len(shared))
	nShared := make([]bool, len(names))
	for k, c := range shared {
		i, ok := colIndex(curCols, c)
		if !ok {
			closeAll(cur)
			return nil, fmt.Errorf("relstore: join column %q not in left relation %v", c, curCols)
		}
		j, ok := colIndex(names, c)
		if !ok {
			closeAll(cur)
			return nil, fmt.Errorf("relstore: join column %q not in projection %v", c, names)
		}
		ci[k], ni[k] = i, j
		nShared[j] = true
	}
	var ix *Index
	if len(shared) == 1 && opts.UseIndex != IndexOff {
		ix = t.indexes[cols[ni[0]]]
	}
	if opts.UseIndex == IndexForce {
		if len(shared) != 1 {
			closeAll(cur)
			return nil, fmt.Errorf("relstore: indexed table join: composite join key %v on %s", shared, t.Name)
		}
		if ix == nil {
			tcol := cols[ni[0]]
			closeAll(cur)
			return nil, fmt.Errorf("relstore: indexed table join: no index on %s.%s", t.Name, t.Cols[tcol].Name)
		}
	}
	outCols := append([]string(nil), curCols...)
	for j, n := range names {
		if !nShared[j] {
			outCols = append(outCols, n)
		}
	}
	var sp *obs.Span
	if opts.Trace != nil {
		// The access-path choice is deferred until the build side has
		// drained; start() records it on this span when it happens.
		sp = opts.Trace.StartSpan("table_join", t.Name+" on "+strings.Join(shared, ","))
	}
	return traced(&tableJoinIter{cols: outCols, cur: cur, t: t, ix: ix,
		preds: preds, tCols: cols, names: names,
		ci: ci, ni: ni, nShared: nShared, opts: opts, span: sp}, sp), nil
}

// tableJoinIter implements NewTableJoin. The build drain, access-path
// decision, and (on the index path) bucket gather all happen at the
// first Next — before any output row, so recursive bodies still observe
// the pre-insert table state through the captured storage.
type tableJoinIter struct {
	cols    []string
	cur     RowIter
	t       *Table
	ix      *Index // candidate index; nil when multi-column or IndexOff
	preds   []Pred
	tCols   []int
	names   []string
	ci, ni  []int
	nShared []bool
	opts    ExecOpts
	span    *obs.Span // records the deferred access-path choice; may be nil

	inner  RowIter
	held   int
	failed error
	closed bool
}

func (it *tableJoinIter) Cols() []string { return it.cols }

func (it *tableJoinIter) Next() (Row, bool, error) {
	if it.failed != nil {
		return nil, false, it.failed
	}
	if it.inner == nil {
		if err := it.start(); err != nil {
			it.failed = err
			return nil, false, err
		}
	}
	return it.inner.Next()
}

func (it *tableJoinIter) start() error {
	var rows [][]Value
	for {
		row, ok, err := it.cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	it.cur.Close()
	// Single-column joins key the build map with the bare value encoding
	// so its keys are exactly the index's bucket keys, letting the index
	// path gather buckets straight from the build map.
	key := func(row []Value, idx []int) string {
		if len(idx) == 1 {
			return hashKey(row[idx[0]])
		}
		return joinKey(row, idx)
	}
	build := make(map[string][][]Value, len(rows))
	for _, row := range rows {
		build[key(row, it.ci)] = append(build[key(row, it.ci)], row)
	}
	it.held = len(rows)
	it.opts.Tracker.Acquire(it.held)
	useIndex := it.ix != nil &&
		(it.opts.UseIndex == IndexForce || 2*len(rows) <= it.ix.NKeys())
	if useIndex {
		it.span.SetStrategy("index")
	} else {
		it.span.SetStrategy("scan")
	}
	it.span.Set("build_rows", int64(len(rows)))
	nOut := len(it.cols)
	if useIndex {
		// Gather the matching table rows and restore table order:
		// sequence numbers are assigned in insertion order and deletions
		// preserve relative order, so sorting by seq reproduces the order
		// a scan of t would have produced (map iteration order does not
		// leak through). The bucket key is the single-column join key
		// (injective), so gathered rows need no key re-check.
		var entries []indexEntry
		for k := range build {
			entries = append(entries, it.ix.buckets[k]...)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
		it.opts.Tracker.Acquire(len(entries))
		it.held += len(entries)
		tj := it.ni[0]
		tcol := it.tCols[tj]
		preds, tCols, nShared := it.preds, it.tCols, it.nShared
		kernel := func(row Row, emit func(Row)) {
			for _, p := range preds {
				if !row[p.Col].Equal(p.Value) {
					return
				}
			}
			proj := make([]Value, 0, len(tCols)-1)
			for i, c := range tCols {
				if !nShared[i] {
					proj = append(proj, row[c])
				}
			}
			for _, crow := range build[hashKey(row[tcol])] {
				joined := make([]Value, 0, nOut)
				joined = append(joined, crow...)
				joined = append(joined, proj...)
				emit(joined)
			}
		}
		it.inner = newExpandIter(it.cols, &entrySliceIter{entries: entries}, it.opts.Workers, kernel)
		return nil
	}
	scanOpts := it.opts
	if scanOpts.UseIndex == IndexForce {
		scanOpts.UseIndex = IndexAuto
	}
	// The inner scan is an implementation detail of this operator's scan
	// path; suppress its span so the table join is one node, not two.
	scanOpts.Trace = nil
	scan, err := NewScan(it.t, it.preds, it.tCols, it.names, scanOpts)
	if err != nil {
		return err
	}
	ni, nShared := it.ni, it.nShared
	kernel := func(brow Row, emit func(Row)) {
		for _, crow := range build[key(brow, ni)] {
			joined := make([]Value, 0, nOut)
			joined = append(joined, crow...)
			for j, v := range brow {
				if !nShared[j] {
					joined = append(joined, v)
				}
			}
			emit(joined)
		}
	}
	it.inner = newExpandIter(it.cols, scan, it.opts.Workers, kernel)
	return nil
}

func (it *tableJoinIter) batches() int64 {
	if bc, ok := it.inner.(batchCounter); ok {
		return bc.batches()
	}
	return 0
}

func (it *tableJoinIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.opts.Tracker.Release(it.held)
	it.held = 0
	err := it.cur.Close()
	if it.inner != nil {
		if e := it.inner.Close(); err == nil {
			err = e
		}
	}
	return err
}

// entrySliceIter streams gathered index entries' rows.
type entrySliceIter struct {
	entries []indexEntry
	pos     int
}

func (it *entrySliceIter) Cols() []string { return nil }

func (it *entrySliceIter) Next() (Row, bool, error) {
	if it.pos >= len(it.entries) {
		return nil, false, nil
	}
	r := it.entries[it.pos].row
	it.pos++
	return r, true, nil
}

func (it *entrySliceIter) Close() error { return nil }

// NewProject streams src restricted to the named columns, optionally
// deduplicating (SELECT DISTINCT). The distinct form runs serially — the
// seen-set is inherently order-dependent state — and holds one seen-set
// entry per distinct row (tracked); the plain form is a parallel
// per-row projection.
func NewProject(src RowIter, cols []string, distinct bool, opts ExecOpts) (RowIter, error) {
	srcCols := src.Cols()
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := colIndex(srcCols, c)
		if !ok {
			closeAll(src)
			return nil, fmt.Errorf("relstore: project: column %q not in %v", c, srcCols)
		}
		idx[i] = j
	}
	outCols := append([]string(nil), cols...)
	var sp *obs.Span
	if opts.Trace != nil {
		sp = opts.Trace.StartSpan("project", strings.Join(cols, ","))
		if distinct {
			sp.SetStrategy("distinct")
		}
	}
	if distinct {
		return traced(&distinctIter{cols: outCols, src: src, idx: idx, opts: opts,
			seen: make(map[string]struct{})}, sp), nil
	}
	return traced(newExpandIter(outCols, src, opts.Workers, func(row Row, emit func(Row)) {
		proj := make([]Value, len(idx))
		for i, j := range idx {
			proj[i] = row[j]
		}
		emit(proj)
	}), sp), nil
}

// distinctIter is the streaming SELECT DISTINCT projection.
type distinctIter struct {
	cols   []string
	src    RowIter
	idx    []int
	seen   map[string]struct{}
	opts   ExecOpts
	held   int
	closed bool
}

func (it *distinctIter) Cols() []string { return it.cols }

func (it *distinctIter) Next() (Row, bool, error) {
	for {
		row, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		proj := make([]Value, len(it.idx))
		var key strings.Builder
		for i, j := range it.idx {
			proj[i] = row[j]
			row[j].AppendKey(&key)
			key.WriteByte('|')
		}
		k := key.String()
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		it.opts.Tracker.Acquire(1)
		it.held++
		return proj, true, nil
	}
}

func (it *distinctIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.opts.Tracker.Release(it.held)
	it.held = 0
	it.seen = nil
	return it.src.Close()
}

// colIndex is Rel.ColIndex over a bare schema: exact, case-sensitive
// match (Datalog variables are case-sensitive).
func colIndex(cols []string, name string) (int, bool) {
	for i, c := range cols {
		if c == name {
			return i, true
		}
	}
	return 0, false
}
