package server

// Serving-tier observability tests: request-id propagation and the
// envelope/log agreement contract, status-class route counters, the
// Prometheus exposition surface, pprof gating, and the EXPLAIN/ANALYZE
// create surface with its delta-round reconciliation invariant.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"graphgen"
	"graphgen/internal/datagen"
)

// syncBuffer is a mutex-guarded byte buffer safe to hand to a slog
// handler while the test goroutine reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords decodes every JSON log line the buffer has accumulated.
func (b *syncBuffer) logRecords(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// newLoggedServer builds a server whose structured log goes to the
// returned buffer as JSON.
func newLoggedServer(t testing.TB, extra Options) (*syncBuffer, *httptest.Server) {
	t.Helper()
	buf := &syncBuffer{}
	extra.Logger = slog.New(slog.NewJSONHandler(buf, nil))
	db := datagen.DBLPLike(7, 60, 45)
	s := New(graphgen.NewEngine(db), extra)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return buf, ts
}

func getWithHeader(t testing.TB, url, reqID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRequestIDPropagation: a well-formed client id is echoed on the
// response header and in the error envelope; a malformed one is
// replaced by a freshly minted id.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, 30, 20)

	resp := getWithHeader(t, ts.URL+"/v1/graphs/nope/stats", "client-id-42")
	var body map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id-42" {
		t.Errorf("valid client request id not echoed: header %q", got)
	}
	if got, _ := body["error"]["request_id"].(string); got != "client-id-42" {
		t.Errorf("error envelope request_id = %q, want client-id-42", got)
	}

	resp = getWithHeader(t, ts.URL+"/v1/healthz", "spaces are invalid!")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Errorf("malformed client id not replaced by a minted one: %q", minted)
	}
}

// TestRequestIDEnvelopeLogAgreement drives a failing request and checks
// the join the request id exists for: the envelope's request_id, the
// response header, the access-log line, and the error-log line all
// carry the same id.
func TestRequestIDEnvelopeLogAgreement(t *testing.T) {
	buf, ts := newLoggedServer(t, Options{})

	resp := getWithHeader(t, ts.URL+"/v1/graphs/ghost/stats", "")
	var body map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID, _ := body["error"]["request_id"].(string)
	if reqID == "" {
		t.Fatal("error envelope carries no request_id")
	}
	if h := resp.Header.Get("X-Request-Id"); h != reqID {
		t.Fatalf("header id %q != envelope id %q", h, reqID)
	}

	// The access-log line is written after the handler returns, which may
	// land just after the client sees the response; poll briefly.
	var errLine, accessLine map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (errLine == nil || accessLine == nil) {
		errLine, accessLine = nil, nil
		for _, rec := range buf.logRecords(t) {
			if rec["request_id"] != reqID {
				continue
			}
			switch rec["msg"] {
			case "request error":
				errLine = rec
			case "request":
				accessLine = rec
			}
		}
		if errLine == nil || accessLine == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if errLine == nil {
		t.Fatalf("no error-log line with request_id %q; log:\n%s", reqID, buf.String())
	}
	if accessLine == nil {
		t.Fatalf("no access-log line with request_id %q; log:\n%s", reqID, buf.String())
	}
	if errLine["code"] != "session_not_found" || errLine["level"] != "WARN" {
		t.Errorf("error line code/level = %v/%v, want session_not_found/WARN", errLine["code"], errLine["level"])
	}
	if accessLine["status"] != float64(http.StatusNotFound) || accessLine["route"] != "GET /v1/graphs/{name}/stats" {
		t.Errorf("access line status/route = %v/%v", accessLine["status"], accessLine["route"])
	}
}

// TestMetricsStatusClasses exercises the per-route status-class split:
// 2xx and 4xx traffic on one route land in separate classes, errors
// equals the 4xx count, the latency histogram accounts every request,
// and each route keeps its own row.
func TestMetricsStatusClasses(t *testing.T) {
	_, ts := newTestServer(t, 30, 20)
	createSession(t, ts, "co", false)

	for i := 0; i < 2; i++ {
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/graphs/co/stats", nil); code != http.StatusOK {
			t.Fatalf("stats: %d", code)
		}
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/graphs/ghost/stats", nil); code != http.StatusNotFound {
		t.Fatal("expected 404")
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatal("healthz failed")
	}

	_, m := doJSON(t, "GET", ts.URL+"/v1/metrics", nil)
	routes, ok := m["requests"].(map[string]any)
	if !ok {
		t.Fatalf("no requests map in /metrics: %v", m)
	}
	stats := func(route string) map[string]any {
		rs, ok := routes[route].(map[string]any)
		if !ok {
			t.Fatalf("route %q missing from metrics; have %v", route, routes)
		}
		return rs
	}

	rs := stats("GET /v1/graphs/{name}/stats")
	if rs["count"] != float64(3) || rs["errors"] != float64(1) {
		t.Errorf("stats route count/errors = %v/%v, want 3/1", rs["count"], rs["errors"])
	}
	classes := rs["status"].(map[string]any)
	if classes["2xx"] != float64(2) || classes["4xx"] != float64(1) {
		t.Errorf("status classes = %v, want 2xx:2 4xx:1", classes)
	}
	hist := rs["latency_seconds"].(map[string]any)
	if hist["count"] != float64(3) {
		t.Errorf("latency histogram count = %v, want 3", hist["count"])
	}
	buckets := hist["buckets"].([]any)
	last := buckets[len(buckets)-1].(map[string]any)
	if last["le"] != "+Inf" || last["count"] != float64(3) {
		t.Errorf("terminator bucket = %v, want le +Inf count 3", last)
	}

	if health := stats("GET /v1/healthz"); health["count"] != float64(1) {
		t.Errorf("healthz row count = %v, want 1", health["count"])
	}
}

// TestMetricsPrometheusFormat checks the text exposition surface:
// content type, the gauge block, per-route counters split by class, and
// histogram series with the +Inf terminator.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, 30, 20)
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	doJSON(t, "GET", ts.URL+"/v1/graphs/ghost/stats", nil)

	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE graphgend_uptime_seconds gauge",
		"graphgend_sessions 0",
		"graphgend_cache_hits_total 0",
		"# TYPE graphgend_requests_total counter",
		`graphgend_requests_total{route="GET /v1/healthz",class="2xx"} 1`,
		`graphgend_requests_total{route="GET /v1/graphs/{name}/stats",class="4xx"} 1`,
		"# TYPE graphgend_request_duration_seconds histogram",
		`graphgend_request_duration_seconds_bucket{route="GET /v1/healthz",le="+Inf"} 1`,
		`graphgend_request_duration_seconds_count{route="GET /v1/healthz"} 1`,
		"# TYPE graphgend_eval_programs_total counter",
		"graphgend_eval_programs_total 0",
		`graphgend_eval_depth_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestPprofGating: the profiling surface is absent by default and
// mounted only under Options.EnablePprof.
func TestPprofGating(t *testing.T) {
	_, tsOff := newTestServer(t, 30, 20)
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: status %d", resp.StatusCode)
	}

	s := New(graphgen.NewEngine(datagen.DBLPLike(7, 30, 20)), Options{EnablePprof: true})
	tsOn := httptest.NewServer(s.Handler())
	defer func() { tsOn.Close(); s.Close() }()
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index under EnablePprof: status %d, want 200", resp.StatusCode)
	}
}

// reachabilityProgram evaluates several semi-naive delta rounds on the
// test database — the ANALYZE reconciliation workload.
const reachabilityProgram = `
Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B.
Reach(A, B) :- Coauthor(A, B).
Reach(A, C) :- Reach(A, B), Coauthor(B, C).
Nodes(ID, N) :- Author(ID, N).
Edges(A, B) :- Reach(A, B).
`

// TestCreateExplain: ?explain=true returns the measurement-free plan —
// operator structure without rows or timing.
func TestCreateExplain(t *testing.T) {
	_, ts := newTestServer(t, 30, 20)
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs?explain=true", map[string]any{
		"name": "co", "query": datagen.QueryCoauthors,
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	plan, ok := body["plan"].(map[string]any)
	if !ok {
		t.Fatalf("explain=true returned no plan: %v", body)
	}
	if plan["op"] != "query" {
		t.Errorf("plan root op = %v, want query", plan["op"])
	}
	if len(plan["children"].([]any)) == 0 {
		t.Error("plan has no children")
	}
	if _, present := plan["rows"]; present {
		t.Error("EXPLAIN plan leaks measurements (rows)")
	}
	if _, present := body["profile"]; present {
		t.Error("explain=true returned a full profile")
	}
}

// walkSpans visits a decoded profile tree depth-first.
func walkSpans(span map[string]any, fn func(map[string]any)) {
	fn(span)
	if kids, ok := span["children"].([]any); ok {
		for _, k := range kids {
			walkSpans(k.(map[string]any), fn)
		}
	}
}

// TestCreateAnalyzeProgramReconciles is the acceptance check for the
// ANALYZE surface: creating a recursive-program session with
// ?analyze=true returns a span tree whose per-delta-round row totals
// reconcile exactly with the evaluator's derived-tuple statistics in
// the same payload.
func TestCreateAnalyzeProgramReconciles(t *testing.T) {
	_, ts := newTestServer(t, 40, 60)
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs?analyze=true", map[string]any{
		"name": "reach", "program": reachabilityProgram,
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	profile, ok := body["profile"].(map[string]any)
	if !ok {
		t.Fatalf("analyze=true returned no profile: %v", body)
	}
	eval, ok := body["eval"].(map[string]any)
	if !ok {
		t.Fatalf("program session payload has no eval stats: %v", body)
	}
	derived := eval["derived_tuples"].(float64)
	if derived <= 0 {
		t.Fatal("reconciliation vacuous: no derived tuples")
	}

	var roundRows float64
	var rounds, operators int
	walkSpans(profile, func(s map[string]any) {
		switch s["op"] {
		case "round":
			rounds++
			roundRows += s["rows"].(float64)
		case "scan", "select", "filter", "join", "cross", "table_join", "project":
			operators++
		}
	})
	if rounds < 2 {
		t.Fatalf("profile recorded %d delta rounds, want several", rounds)
	}
	if operators == 0 {
		t.Error("profile has no operator spans")
	}
	if roundRows != derived {
		t.Errorf("round spans sum to %v rows, eval reports %v derived tuples", roundRows, derived)
	}
}

// TestAnalyzeEndpointReattachesPlan: the build trace recorded at create
// time is re-attachable on the analytics endpoint, on both the cold and
// the cached path, and only when asked for.
func TestAnalyzeEndpointReattachesPlan(t *testing.T) {
	_, ts := newTestServer(t, 30, 20)
	code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs?analyze=true", map[string]any{
		"name": "co", "query": datagen.QueryCoauthors,
	})
	if code != http.StatusCreated {
		t.Fatal("create failed")
	}

	code, cold := doJSON(t, "GET", ts.URL+"/v1/graphs/co/analyze/degree?explain=true", nil)
	if code != http.StatusOK {
		t.Fatalf("analyze: %d", code)
	}
	if cold["cached"] != false || cold["plan"] == nil {
		t.Errorf("cold analyze: cached=%v plan=%v, want false/non-nil", cold["cached"], cold["plan"])
	}
	code, warm := doJSON(t, "GET", ts.URL+"/v1/graphs/co/analyze/degree?analyze=true", nil)
	if code != http.StatusOK || warm["cached"] != true {
		t.Fatalf("warm analyze not cached: %d %v", code, warm["cached"])
	}
	if warm["profile"] == nil {
		t.Error("warm analyze with analyze=true carries no profile")
	}
	_, plain := doJSON(t, "GET", ts.URL+"/v1/graphs/co/analyze/degree", nil)
	if plain["plan"] != nil || plain["profile"] != nil {
		t.Error("plain analyze leaked plan/profile without being asked")
	}
}
