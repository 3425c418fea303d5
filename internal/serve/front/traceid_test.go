package front

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestTraceIDRuleMatchesWorker sends the same inbound X-Trace-Id values
// to a worker and to a front: both must echo exactly the same ones and
// mint a fresh ID for exactly the same others.
func TestTraceIDRuleMatchesWorker(t *testing.T) {
	fx := newFleet(t, 1)
	worker, front := fx.workers[0].srv.Handler(), fx.front.Handler()
	cases := []struct {
		name, id string
		echo     bool
	}{
		{"empty", "", false},
		{"one byte", "x", true},
		{"128 bytes", strings.Repeat("a", 128), true},
		{"129 bytes", strings.Repeat("a", 129), false},
		{"space", "has space", false},
		{"quote", `has"quote`, false},
		{"backslash", `has\backslash`, false},
		{"DEL", "has\x7fdel", false},
		{"non-ASCII", "trace-ü", false},
		{"punctuation", "a-b_c.d:e/f~g", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, target := range []struct {
				name string
				h    http.Handler
				path string
			}{{"worker", worker, "/v1/registry"}, {"front", front, "/status"}} {
				req := httptest.NewRequest(http.MethodGet, target.path, nil)
				if c.id != "" {
					req.Header.Set(serve.TraceIDHeader, c.id)
				}
				rec := httptest.NewRecorder()
				target.h.ServeHTTP(rec, req)
				got := rec.Header().Get(serve.TraceIDHeader)
				if got == "" {
					t.Fatalf("%s: no %s on the response", target.name, serve.TraceIDHeader)
				}
				if echoed := got == c.id; echoed != c.echo {
					t.Errorf("%s answered %q for inbound %q: echoed=%v, want %v", target.name, got, c.id, echoed, c.echo)
				}
			}
		})
	}
}

// TestFrontForwardsMintedTraceID: an ID the front mints (the inbound
// one was invalid) is the one its worker records, so a fronted request
// stays one trace across the hop.
func TestFrontForwardsMintedTraceID(t *testing.T) {
	fx := newFleet(t, 1)
	resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json",
		[]byte(`{"machine":"T3D","op":"broadcast","p":8,"m":16}`),
		map[string]string{serve.TraceIDHeader: "not valid"})
	readAll(t, resp)
	id := resp.Header.Get(serve.TraceIDHeader)
	if resp.StatusCode != http.StatusOK || id == "" || id == "not valid" {
		t.Fatalf("status %d, trace ID %q: want 200 with a minted ID", resp.StatusCode, id)
	}
	traces := string(readAll(t, postGet(t, fx.workers[0].hs.URL+"/debug/traces")))
	if !strings.Contains(traces, `"`+id+`"`) {
		t.Fatalf("worker's trace ring lacks the front-minted %q:\n%s", id, traces)
	}
}
