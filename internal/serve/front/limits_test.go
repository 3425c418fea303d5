package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/serve"
)

// TestRequestLimitBoundaries probes each request cap one below, at,
// and one above its limit — the batch cap, the message-length cap, and
// the request-body cap — against a worker directly and through a
// one-worker front. At the limit a request is still served; one past it
// is refused, with 413 for an oversized body and 400 otherwise, and the
// front answers exactly as the worker does.
func TestRequestLimitBoundaries(t *testing.T) {
	const maxBatch, maxMessage = 8, 4096
	srv := &serve.Server{
		Registry: testRegistry(t, estimate.NewSampleMemo()), Default: "test-cal",
		Config: tinyCfg, MaxBatch: maxBatch, MaxMessage: maxMessage,
	}
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(worker.Close)
	f, err := New(Config{Workers: []Worker{{Name: "w0", URL: worker.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fronted := httptest.NewServer(f.Handler())
	t.Cleanup(fronted.Close)

	batch := func(n int) []byte {
		scns := make([]serve.Scenario, n)
		for i := range scns {
			scns[i] = serve.Scenario{Machine: "T3D", Op: "broadcast", P: 8, M: 16}
		}
		b, err := json.Marshal(scns)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	message := func(m int) []byte {
		// The paper entry has no envelope, so every length is closed form.
		return []byte(fmt.Sprintf(`{"registry":"paper","scenarios":[{"machine":"T3D","op":"broadcast","p":8,"m":%d}]}`, m))
	}
	body := func(size int) []byte {
		// One valid scenario padded with trailing whitespace to size bytes.
		b := []byte(`{"machine":"T3D","op":"broadcast","p":8,"m":16}`)
		return append(b, bytes.Repeat([]byte{' '}, size-len(b))...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"batch limit-1", batch(maxBatch - 1), http.StatusOK},
		{"batch limit", batch(maxBatch), http.StatusOK},
		{"batch limit+1", batch(maxBatch + 1), http.StatusBadRequest},
		{"message limit-1", message(maxMessage - 1), http.StatusOK},
		{"message limit", message(maxMessage), http.StatusOK},
		{"message limit+1", message(maxMessage + 1), http.StatusBadRequest},
		{"body limit-1", body(serve.MaxBodyBytes - 1), http.StatusOK},
		{"body limit", body(serve.MaxBodyBytes), http.StatusOK},
		{"body limit+1", body(serve.MaxBodyBytes + 1), http.StatusRequestEntityTooLarge},
	} {
		for _, target := range []struct{ name, url string }{
			{"worker", worker.URL}, {"front", fronted.URL},
		} {
			resp := postBody(t, target.url+"/v1/estimate", "application/json", tc.body, nil)
			got := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Errorf("%s via %s: status %d, want %d: %.200s", tc.name, target.name, resp.StatusCode, tc.want, got)
			}
		}
	}
}

// TestMergeCacheVerdict: the front folds its workers' X-Estimate-Cache
// verdicts the way one worker folds its scenarios' lookups — any miss
// is a miss, else any hit is a hit, and bypass only when no worker
// made a lookup — so a fronted batch reports what a single worker
// answering the whole batch would.
func TestMergeCacheVerdict(t *testing.T) {
	for _, tc := range []struct {
		workers []string
		want    string
	}{
		{[]string{"hit"}, "hit"},
		{[]string{"miss"}, "miss"},
		{[]string{"bypass"}, "bypass"},
		{[]string{"hit", "hit"}, "hit"},
		{[]string{"hit", "miss"}, "miss"},
		{[]string{"hit", "bypass"}, "hit"},
		{[]string{"bypass", "hit"}, "hit"},
		{[]string{"bypass", "miss"}, "miss"},
		{[]string{"miss", "bypass", "hit"}, "miss"},
		{[]string{"bypass", "bypass"}, "bypass"},
		{[]string{"", "hit"}, "hit"}, // a worker that sent no header made no lookup
	} {
		groups := make([]*group, len(tc.workers))
		for i, v := range tc.workers {
			groups[i] = &group{cache: v}
		}
		if got := mergeCacheVerdict(groups); got != tc.want {
			t.Errorf("mergeCacheVerdict(%q) = %q, want %q", tc.workers, got, tc.want)
		}
	}
}
