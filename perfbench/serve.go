package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
	"graphgen/internal/server"
	"graphgen/internal/workload"
)

// serveClients is the closed loop's client count: the client sends its
// next op only after the previous reply. The benchmark machine has two
// cores; with two clients the server kept both busy, and one CPU-bound
// process beside it cut serve-mixed throughput by 45% (one client: 4 to
// 17%), so the result measured the host's scheduler, not the server.
const serveClients = 1

// Op classes of the serve workloads.
const (
	classRead = iota
	classMutate
	classAnalyze
	numClasses
)

var classNames = [numClasses]string{"read", "mutate", "analyze"}

// serveMix is a serve workload's op-class weights.
type serveMix [numClasses]int

var (
	// mixServeMixed is graphload's default mix: every mutation bumps the
	// live session's version, so most analyze ops miss the result cache.
	mixServeMixed = serveMix{classRead: 60, classMutate: 30, classAnalyze: 10}
	// mixReadMostly has no writes: the four analyze keys stay cached.
	mixReadMostly = serveMix{classRead: 90, classAnalyze: 10}
)

// analyzePaths is graphload's analyze rotation: four keys, well inside
// the server's 256-entry result cache.
var analyzePaths = [...]string{
	"degree?k=10",
	"components",
	"sssp?sources=4",
	"closeness?samples=8&k=5",
}

// mutIDBase keeps synthetic mutation vertex IDs clear of every generated
// entity range (persons, forums at 1e7, posts at 2e7).
const mutIDBase = int64(900_000_000)

const sessionName = "bench"

// maxReplayOps caps the library replay, whose reads take microseconds on
// serve-readmostly, so the span file stays a few megabytes.
const maxReplayOps = 20_000

// op is one generated request of a client's stream.
type op struct {
	class   int
	vertex  int64    // read
	row     [2]int64 // mutate: the Knows row
	insert  bool     // mutate: insert or delete the row
	analyze int      // analyze: index into analyzePaths
}

// opStream generates one client's seeded op sequence: the same seed and
// client give the same ops, whether they go to the server or the library.
type opStream struct {
	rng        *rand.Rand
	mix        serveMix
	total      int
	client     int
	maxID      int64
	analyzeSeq int
	mutSeq     int64
	pending    *[2]int64 // inserted row awaiting its paired delete
}

func newOpStream(seed int64, client int, mix serveMix, maxID int64) *opStream {
	s := &opStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), mix: mix, client: client, maxID: max(maxID, 1)}
	for _, w := range mix {
		s.total += w
	}
	return s
}

func (s *opStream) next() op {
	x := s.rng.Intn(s.total)
	class := 0
	for c, w := range s.mix {
		if x < w {
			class = c
			break
		}
		x -= w
	}
	switch class {
	case classRead:
		return op{class: classRead, vertex: 1 + s.rng.Int63n(s.maxID)}
	case classMutate:
		if s.pending != nil {
			row := *s.pending
			s.pending = nil
			return op{class: classMutate, row: row}
		}
		src := mutIDBase + int64(s.client)*1_000_000 + s.mutSeq
		s.mutSeq++
		row := [2]int64{src, src + 1}
		s.pending = &row
		return op{class: classMutate, row: row, insert: true}
	default:
		o := op{class: classAnalyze, analyze: s.analyzeSeq % len(analyzePaths)}
		s.analyzeSeq++
		return o
	}
}

// --- the in-process server ---

// serveEnv is one set-up of a serve workload: SNB SF1, a graphgend
// server over it on a loopback listener, and a live Knows session.
type serveEnv struct {
	db       *graphgen.DB
	srv      *server.Server
	ts       *httptest.Server
	hc       *http.Client
	vertices int64
}

func newServeEnv(seed int64) (*serveEnv, error) {
	db := datagen.SNB(datagen.SNBConfig{Seed: seed, ScaleFactor: 1})
	srv := server.New(graphgen.NewEngine(db), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	env := &serveEnv{db: db, srv: srv, ts: ts, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
	}}
	var body struct {
		Vertices int64 `json:"vertices"`
	}
	req := map[string]any{"name": sessionName, "query": datagen.QueryKnows, "live": true}
	if err := env.post("/v1/graphs", req, &body, http.StatusCreated); err != nil {
		env.close()
		return nil, fmt.Errorf("creating the live session: %w", err)
	}
	env.vertices = body.Vertices
	return env, nil
}

// close stops the listener (waiting for in-flight handlers) and the
// server's live sessions.
func (e *serveEnv) close() {
	e.hc.CloseIdleConnections()
	e.ts.Close()
	e.srv.Close()
}

// do sends one request, requires the status, and decodes the reply.
func (e *serveEnv) do(method, path string, payload any, v any, status int) error {
	var body io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, raw)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s %s: malformed reply: %w", method, path, err)
	}
	return nil
}

func (e *serveEnv) get(path string, v any) error {
	return e.do(http.MethodGet, path, nil, v, http.StatusOK)
}

func (e *serveEnv) post(path string, payload, v any, status int) error {
	return e.do(http.MethodPost, path, payload, v, status)
}

// analyzeReply is the part of an /analyze reply the benchmark reads.
type analyzeReply struct {
	Analysis  string  `json:"analysis"`
	Cached    bool    `json:"cached"`
	ComputeMS float64 `json:"compute_ms"`
}

// clientStats is what one closed-loop client observed.
type clientStats struct {
	samples  []opSample
	failed   int64
	firstErr error
	// analyze replies: cache hits, and on misses compute_ms and the
	// latency the server did not attribute to compute.
	hits, analyzes    int64
	compute, overhead []float64
}

// send issues one op over HTTP and checks the reply the way graphload
// does: status, and the field each op class must carry.
func (e *serveEnv) send(o op, cs *clientStats) error {
	path := "/v1/graphs/" + sessionName
	switch o.class {
	case classRead:
		var body struct {
			Degree *int `json:"degree"`
		}
		if err := e.get(fmt.Sprintf("%s/neighbors?v=%d", path, o.vertex), &body); err != nil {
			return err
		}
		if body.Degree == nil {
			return fmt.Errorf("neighbors of %d: reply carries no degree", o.vertex)
		}
	case classMutate:
		verb := "delete"
		if o.insert {
			verb = "insert"
		}
		var body struct {
			Applied *int `json:"applied"`
		}
		if err := e.post("/v1/db/Knows/"+verb, map[string]any{"row": o.row}, &body, http.StatusOK); err != nil {
			return err
		}
		if body.Applied == nil || *body.Applied != 1 {
			return fmt.Errorf("%s of %v applied %v rows, want 1", verb, o.row, body.Applied)
		}
	default:
		var body analyzeReply
		start := time.Now()
		if err := e.get(path+"/analyze/"+analyzePaths[o.analyze], &body); err != nil {
			return err
		}
		lat := ms(time.Since(start))
		if body.Analysis == "" {
			return fmt.Errorf("analyze %s: reply carries no analysis", analyzePaths[o.analyze])
		}
		cs.analyzes++
		if body.Cached {
			cs.hits++
		} else {
			cs.compute = append(cs.compute, body.ComputeMS)
			cs.overhead = append(cs.overhead, lat-body.ComputeMS)
		}
	}
	return nil
}

// loadHTTP runs the closed loop against the server until the deadline.
func (e *serveEnv) loadHTTP(seed int64, mix serveMix, deadline time.Time) []*clientStats {
	stats := make([]*clientStats, serveClients)
	var wg sync.WaitGroup
	for c := range stats {
		cs := &clientStats{}
		stats[c] = cs
		ops := newOpStream(seed, c, mix, e.vertices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := ops.next()
				start := time.Now()
				err := e.send(o, cs)
				cs.samples = append(cs.samples, opSample{ms: ms(time.Since(start)), class: o.class})
				if err != nil {
					cs.failed++
					if cs.firstErr == nil {
						cs.firstErr = err
					}
				}
			}
		}()
	}
	wg.Wait()
	return stats
}

// checkFinal compares the session with a fresh extraction over the final
// database, and returns the fresh graph.
func (e *serveEnv) checkFinal(res *result) (*graphgen.Graph, error) {
	var body struct {
		LogicalEdges int64 `json:"logical_edges"`
		Maintenance  struct {
			Rebuilds int64 `json:"rebuilds"`
		} `json:"maintenance"`
	}
	if err := e.get("/v1/graphs/"+sessionName+"/stats", &body); err != nil {
		return nil, err
	}
	fresh, err := graphgen.NewEngine(e.db).Extract(datagen.QueryKnows)
	if err != nil {
		return nil, fmt.Errorf("fresh extraction: %w", err)
	}
	res.Attempted++
	if body.LogicalEdges != fresh.LogicalEdges() {
		res.fail("session has %d logical edges, a fresh extraction has %d", body.LogicalEdges, fresh.LogicalEdges())
	}
	if body.Maintenance.Rebuilds != 0 {
		res.fail("session rebuilt %d times, want 0", body.Maintenance.Rebuilds)
	}
	return fresh, nil
}

// runServe runs a serve workload. Untraced, the closed loop drives the
// server for the whole run. Traced, the first half drives the server
// (for the server.* and go.* metrics) and the second half replays the
// same op stream against the library under spans.
func runServe(cfg config, mix serveMix) (*result, error) {
	var env *serveEnv
	var err error
	setups := timeSetups(func() {
		if env != nil {
			env.close()
		}
		env, err = newServeEnv(cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &result{}
	knows, _ := env.db.Table("Knows")
	res.notef("input: %d persons, %d Knows rows; closed loop of %d client(s), mix read=%d mutate=%d analyze=%d",
		env.vertices, knows.NumRows(), serveClients, mix[classRead], mix[classMutate], mix[classAnalyze])

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	ph := beginPhase()
	stats := env.loadHTTP(cfg.seed, mix, time.Now().Add(time.Duration(seconds*float64(time.Second))))
	ps := ph.end()

	var ops int
	var byClass [numClasses][]float64
	var hits, analyzes int64
	var compute, overhead []float64
	for _, cs := range stats {
		for _, s := range cs.samples {
			byClass[s.class] = append(byClass[s.class], s.ms)
		}
		ops += len(cs.samples)
		res.Failed += cs.failed
		if cs.firstErr != nil {
			res.notef("op error: %v", cs.firstErr)
		}
		hits += cs.hits
		analyzes += cs.analyzes
		compute = append(compute, cs.compute...)
		overhead = append(overhead, cs.overhead...)
	}
	res.Attempted += int64(ops)
	fresh, err := env.checkFinal(res)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		setEndToEndCommon(res, ps, setups, ops, ratio(ms(ps.cpu), float64(ops)))
		res.notef("wall-clock throughput %.4g ops/s", ratio(float64(ops), ps.elapsed.Seconds()))
		res.set("graph_bytes_per_edge", ratio(float64(fresh.MemBytes()), float64(fresh.LogicalEdges())), "B")
		for c, lat := range byClass {
			if len(lat) > 0 {
				n := len(lat)
				res.notef("%s: %d ops, p50 %.4f ms, p99 %.4f ms", classNames[c], n, pct(lat, 50), pct(lat, 99))
			}
		}
		res.notef("analyze cache hits %d of %d", hits, analyzes)
		return res, nil
	}

	setGoLayer(res, ps, int64(ops))
	res.set("server.cache_hit_ratio", ratio(float64(hits), float64(analyzes)), "ratio")
	res.set("server.compute_ms_p50", pct(compute, 50), "ms")
	res.set("server.overhead_ms_p50", pct(overhead, 50), "ms")

	tr := newTracer()
	if err := replay(cfg, mix, env, tr, seconds, res); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.spanDir, cfg); err != nil {
		return nil, err
	}
	fillPerLayer(res)
	return res, nil
}

// --- the library replay ---

// replay closes the server, then replays the workload's op stream
// directly against the library over the same database: Table.Insert and
// Table.Delete serialised on one mutex as the server's dbMu serialises
// them, LiveGraph.Neighbors for reads, and LiveGraph.Version,
// SnapshotWithVersion, workload.Snap and the analysis for analyze ops,
// with a result reused when (version, analysis) repeats, as the server's
// result cache does. Every call runs inside a span.
func replay(cfg config, mix serveMix, env *serveEnv, tr *tracer, seconds float64, res *result) error {
	env.close()
	knows, err := env.db.Table("Knows")
	if err != nil {
		return err
	}
	lg, err := graphgen.NewEngine(env.db).ExtractLive(datagen.QueryKnows)
	if err != nil {
		return fmt.Errorf("replay: live extraction: %w", err)
	}
	defer lg.Close()

	var dbMu, cacheMu sync.Mutex
	type cacheKey struct {
		version  uint64
		analysis int
	}
	cache := map[cacheKey]bool{}
	var opSeq atomic.Int64
	var failed, attempted atomic.Int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))

	flushPending := func(parent int32, id int64) {
		if lg.Pending() > 0 {
			tr.timed("incremental.Flush", "", parent, id, func() {
				if err := lg.Flush(); err != nil {
					failed.Add(1)
				}
			})
		}
	}
	do := func(o op) {
		id := opSeq.Add(1)
		root := tr.begin("op", classNames[o.class], -1, id)
		defer tr.end(root)
		switch o.class {
		case classRead:
			flushPending(root, id)
			tr.timed("core.Neighbors", "", root, id, func() {
				it := lg.Neighbors(o.vertex)
				for _, ok := it.Next(); ok; _, ok = it.Next() {
				}
			})
		case classMutate:
			row := []graphgen.Value{graphgen.IntVal(o.row[0]), graphgen.IntVal(o.row[1])}
			found, err := true, error(nil)
			dbMu.Lock()
			if o.insert {
				tr.timed("relstore.Insert", "", root, id, func() { err = knows.Insert(row...) })
			} else {
				tr.timed("relstore.Delete", "", root, id, func() { found, err = knows.Delete(row...) })
			}
			dbMu.Unlock()
			if err != nil || !found {
				failed.Add(1)
			}
		default:
			flushPending(root, id)
			var version uint64
			tr.timed("incremental.Version", "", root, id, func() { version = lg.Version() })
			cacheMu.Lock()
			hit := cache[cacheKey{version, o.analyze}]
			cacheMu.Unlock()
			if hit {
				return
			}
			var g *graphgen.Graph
			tr.timed("core.SnapshotWithVersion", "", root, id, func() { g, version = lg.SnapshotWithVersion() })
			if !analyzeLibrary(tr, root, id, g, o.analyze) {
				failed.Add(1)
			}
			cacheMu.Lock()
			if len(cache) >= 256 {
				clear(cache)
			}
			cache[cacheKey{version, o.analyze}] = true
			cacheMu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		ops := newOpStream(cfg.seed, c, mix, env.vertices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && attempted.Add(1) <= maxReplayOps {
				do(ops.next())
			}
		}()
	}
	wg.Wait()
	replayed := min(attempted.Load(), maxReplayOps)
	res.Attempted += replayed
	if n := failed.Load(); n > 0 {
		res.Failed += n
		res.notef("replay: %d failed ops", n)
	}

	mst := lg.MaintenanceStats()
	fresh, err := graphgen.NewEngine(env.db).Extract(datagen.QueryKnows)
	if err != nil {
		return fmt.Errorf("replay: fresh extraction: %w", err)
	}
	res.Attempted++
	if lg.LogicalEdges() != fresh.LogicalEdges() {
		res.fail("replay: live graph has %d logical edges, a fresh extraction has %d", lg.LogicalEdges(), fresh.LogicalEdges())
	}
	if mst.Rebuilds != 0 {
		res.fail("replay: live graph rebuilt %d times, want 0", mst.Rebuilds)
	}
	snap := lg.Snapshot()
	res.set("core.bytes_per_edge.cdup", ratio(float64(snap.MemBytes()), float64(snap.LogicalEdges())), "B")
	mutate := append(tr.durations("relstore.Insert", time.Microsecond), tr.durations("relstore.Delete", time.Microsecond)...)
	res.set("relstore.mutate_us_p50", pct(mutate, 50), "us")
	res.set("core.clone_ms_p50", pct(tr.durations("core.SnapshotWithVersion", time.Millisecond), 50), "ms")
	res.set("core.neighbors_us_p50", pct(tr.durations("core.Neighbors", time.Microsecond), 50), "us")
	res.set("workload.snap_ms_p50", pct(tr.durations("workload.Snap", time.Millisecond), 50), "ms")
	res.set("workload.sssp_ms_p50", pct(tr.durations("workload.MultiSourceBFS", time.Millisecond), 50), "ms")
	res.set("workload.closeness_ms_p50", pct(tr.durations("workload.Closeness", time.Millisecond), 50), "ms")
	flush := tr.durations("incremental.Flush", time.Microsecond)
	res.set("incremental.flush_us_p50", pct(flush, 50), "us")
	res.set("incremental.flush_us_p99", pct(flush, 99), "us")
	res.set("incremental.deltas_per_flush", ratio(float64(mst.DeltaRows), float64(mst.Flushes)), "count")
	res.set("incremental.transitions", float64(mst.Transitions), "count")
	res.set("incremental.rebuilds", float64(mst.Rebuilds), "count")
	res.notef("replay: %d ops, %d flushes, %d snapshots", replayed, len(flush), len(tr.durations("core.SnapshotWithVersion", time.Millisecond)))
	return nil
}

// analyzeLibrary runs one analysis of the rotation on a snapshot, as the
// server's handler does, and reports whether it produced a result.
func analyzeLibrary(tr *tracer, parent int32, id int64, g *graphgen.Graph, which int) bool {
	ok := true
	switch which {
	case 0:
		tr.timed("algo.Degrees", "", parent, id, func() { ok = len(g.Degrees()) > 0 })
	case 1:
		tr.timed("algo.ConnectedComponents", "", parent, id, func() { _, n := g.ConnectedComponents(); ok = n > 0 })
	default:
		var snap *workload.Snapshot
		tr.timed("workload.Snap", "", parent, id, func() { snap = workload.Snap(g) })
		if which == 2 {
			tr.timed("workload.MultiSourceBFS", "", parent, id, func() { ok = snap.MultiSourceBFS(snap.SampleSources(4)).Reached > 0 })
		} else {
			tr.timed("workload.Closeness", "", parent, id, func() {
				ok = len(workload.TopCloseness(snap.Closeness(snap.SampleSources(8), 0), 5)) > 0
			})
		}
	}
	return ok
}
