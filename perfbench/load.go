package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load generator's concurrency: the box's two cores.
const maxConns = 2

// requestTimeout bounds one request; a request that misses it fails.
const requestTimeout = 30 * time.Second

// failedLatency stands in for the latency of a failed or refused
// request: it misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// newClient returns a keep-alive client holding at most maxConns
// connections. It never retries: a retried request would hide a shed.
func newClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns, DisableCompression: true}
	}
	return &http.Client{Transport: rt, Timeout: requestTimeout}
}

// reply is one finished request.
type reply struct {
	status int
	body   []byte
}

// post sends body to url and reads the whole answer into buf (reused
// across calls by one client goroutine).
func post(client *http.Client, url, contentType string, body []byte, header http.Header, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return reply{}, fmt.Errorf("reading the answer: %w", err)
	}
	return reply{status: resp.StatusCode, body: buf.Bytes()}, nil
}

// closedResult is what a closed loop measured.
type closedResult struct {
	lat       latencies
	at        []time.Duration // completion offsets, parallel to lat
	requests  int
	scenarios int
	wall      time.Duration
}

// runClosed drives clients closed-loop workers for d: each sends its
// next request only when the previous one has answered. do sends
// request i for client c and returns the scenarios it answered and
// whether the request succeeded.
// Requests started before d elapses run to completion; the wall time
// ends at the last completion.
func runClosed(clients int, d time.Duration, do func(c, i int) (int, bool)) closedResult {
	var next atomic.Int64
	var mu sync.Mutex
	res := closedResult{}
	t0 := time.Now()
	end := t0.Add(d)
	var last time.Time
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat latencies
			var at []time.Duration
			scen := 0
			var done time.Time
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				n, ok := do(c, i)
				done = time.Now()
				scen += n
				at = append(at, done.Sub(t0))
				if ok {
					lat = append(lat, done.Sub(t))
				} else {
					lat = append(lat, failedLatency)
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.at = append(res.at, at...)
			res.requests += len(lat)
			res.scenarios += scen
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = last.Sub(t0)
	return res
}
