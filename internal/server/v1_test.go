package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"graphgen/internal/datagen"
)

// TestBarePathsNotRouted pins the single HTTP surface: every endpoint
// lives under /v1 only, a bare pre-versioning path is a 404 that
// changes nothing, and no route label in /v1/metrics is marked
// "(deprecated)".
func TestBarePathsNotRouted(t *testing.T) {
	s, ts := newTestServer(t, 40, 30)
	author, err := s.engine.DB().Table("Author")
	if err != nil {
		t.Fatal(err)
	}
	before := author.NumRows()
	if code, err := getStatus(ts.URL + "/graphs"); err != nil || code != http.StatusNotFound {
		t.Fatalf("GET /graphs: status %d, err %v, want 404", code, err)
	}
	if code, err := postJSON(ts.URL+"/db/Author/insert", map[string]any{"row": []any{999, "x"}}); err != nil || code != http.StatusNotFound {
		t.Fatalf("POST /db/Author/insert: status %d, err %v, want 404", code, err)
	}
	if author.NumRows() != before {
		t.Fatalf("bare-path insert changed Author: %d rows, want %d", author.NumRows(), before)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/graphs", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/graphs: status %d", code)
	}
	_, m := doJSON(t, "GET", ts.URL+"/v1/metrics", nil)
	reqs := m["requests"].(map[string]any)
	if _, ok := reqs["GET /v1/graphs"]; !ok {
		t.Fatalf("no /v1 route label in metrics: %v", reqs)
	}
	for label := range reqs {
		if strings.Contains(label, "(deprecated)") {
			t.Fatalf("route label %q is marked deprecated", label)
		}
	}
}

// TestErrorEnvelopeCodes walks the error surface and asserts each
// failure mode returns its documented stable code.
func TestErrorEnvelopeCodes(t *testing.T) {
	s, ts := newTestServer(t, 40, 30)
	code, body := doJSON(t, "POST", ts.URL+"/v1/graphs", map[string]any{
		"name": "co", "query": datagen.QueryCoauthors,
	})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %v", code, body)
	}
	// No rejected mutation below may apply a row.
	author, err := s.engine.DB().Table("Author")
	if err != nil {
		t.Fatal(err)
	}
	before := author.NumRows()

	cases := []struct {
		name       string
		method     string
		path       string
		body       map[string]any
		wantStatus int
		wantCode   string
	}{
		{"bad session name", "POST", "/v1/graphs", map[string]any{"name": "no/slash", "query": datagen.QueryCoauthors}, http.StatusBadRequest, "bad_param"},
		{"no query or program", "POST", "/v1/graphs", map[string]any{"name": "empty"}, http.StatusBadRequest, "bad_param"},
		{"duplicate session", "POST", "/v1/graphs", map[string]any{"name": "co", "query": datagen.QueryCoauthors}, http.StatusConflict, "session_exists"},
		{"bad query", "POST", "/v1/graphs", map[string]any{"name": "bad", "query": "this is not datalog"}, http.StatusBadRequest, "extraction_failed"},
		{"unknown session", "DELETE", "/v1/graphs/nope", nil, http.StatusNotFound, "session_not_found"},
		{"missing v param", "GET", "/v1/graphs/co/neighbors", nil, http.StatusBadRequest, "bad_param"},
		{"non-integer v", "GET", "/v1/graphs/co/neighbors?v=abc", nil, http.StatusBadRequest, "bad_param"},
		{"unknown analysis", "GET", "/v1/graphs/co/analyze/nope", nil, http.StatusBadRequest, "bad_param"},
		{"unknown table", "POST", "/v1/db/Nope/insert", map[string]any{"row": []any{1}}, http.StatusNotFound, "table_not_found"},
		{"empty mutation", "POST", "/v1/db/Author/insert", map[string]any{}, http.StatusBadRequest, "bad_param"},
		{"arity mismatch", "POST", "/v1/db/Author/insert", map[string]any{"row": []any{1}}, http.StatusBadRequest, "bad_param"},
		{"row and rows", "POST", "/v1/db/Author/insert", map[string]any{"row": []any{900, "x"}, "rows": [][]any{{901, "y"}}}, http.StatusBadRequest, "bad_param"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		gotCode, msg := errEnvelope(t, body)
		if code != tc.wantStatus || gotCode != tc.wantCode {
			t.Errorf("%s: status %d code %q (want %d %q), message %q", tc.name, code, gotCode, tc.wantStatus, tc.wantCode, msg)
		}
		if msg == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// Malformed and trailing-data bodies cannot go through doJSON's
	// marshaler.
	for _, tc := range []struct{ name, path, body string }{
		{"malformed JSON", "/v1/graphs", "{not json"},
		{"trailing object on create", "/v1/graphs", `{"name": "tr", "query": "x"} {"name": "tr2"}`},
		{"trailing object on insert", "/v1/db/Author/insert", `{"row": [900, "x"]}{"row": [901, "y"]}`},
		{"trailing garbage on delete", "/v1/db/Author/delete", `{"row": [1, "x"]} junk`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		gotCode, _ := errEnvelope(t, out)
		if resp.StatusCode != http.StatusBadRequest || gotCode != "bad_json" {
			t.Errorf("%s: status %d code %q, want 400 bad_json", tc.name, resp.StatusCode, gotCode)
		}
	}
	if author.NumRows() != before {
		t.Fatalf("rejected requests changed Author: %d rows, want %d", author.NumRows(), before)
	}
}
