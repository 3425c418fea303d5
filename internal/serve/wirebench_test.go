package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/serve/wire"
	"repro/internal/sweep"
)

// BenchmarkServeWire measures the fast wire mode end to end through a
// real TCP socket: an httptest server with the warm calibrated
// registry, hit by a kept-alive client. Variants cover the binary codec
// single and batched (the default 788-scenario grid), each cold
// (answer cache off) and hot (answer cache attached), plus the same-run
// JSON batch as the comparator the wire mode is judged against. Every
// scenario here is answered in closed form, which never consults the
// answer cache, so cold and hot take the same path; the hot rows keep
// their names because scripts/bench.sh gates on them.
// scripts/bench.sh prints and gates on the batch788-hot scenarios/s
// headline. Tracked by scripts/bench.sh.
func BenchmarkServeWire(b *testing.B) {
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	entry, err := reg.Get("refit-default")
	if err != nil {
		b.Fatal(err)
	}

	spec := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      estimate.DefaultCalibrationSizes,
	}
	scns, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	// Calibrate outside the timed region, as BenchmarkServeThroughput
	// does: these numbers are serving rates, not calibration rates.
	if cal, ok := entry.Backend.(*estimate.Calibrated); ok {
		var triples []estimate.Triple
		for _, sc := range scns {
			triples = append(triples, estimate.Triple{
				Machine: machine.ByName(sc.Machine), Op: sc.Op, Alg: sc.Algorithm,
			})
		}
		cal.Precalibrate(triples, 0)
	}

	// The binary grid request: every distinct name once in the table.
	wreq := wire.Request{}
	index := map[string]uint32{}
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(wreq.Table))
		wreq.Table = append(wreq.Table, s)
		index[s] = i
		return i
	}
	grid := make([]Scenario, len(scns))
	for i, sc := range scns {
		grid[i] = Scenario{Machine: sc.Machine, Op: string(sc.Op), Algorithm: sc.Algorithm, P: sc.P, M: sc.M}
		wreq.Records = append(wreq.Records, wire.Record{
			Mach: intern(sc.Machine), Op: intern(string(sc.Op)), Alg: intern(sc.Algorithm),
			P: sc.P, M: sc.M,
		})
	}
	batchWire := wreq.Append(nil)
	batchJSON, err := json.Marshal(grid)
	if err != nil {
		b.Fatal(err)
	}
	singleWire := (&wire.Request{
		Table:   []string{"SP2", "alltoall", ""},
		Records: []wire.Record{{Mach: 0, Op: 1, Alg: 2, P: 32, M: 1024}},
	}).Append(nil)

	for _, v := range []struct {
		name        string
		contentType string
		body        []byte
		cache       *AnswerCache
		scenarios   int
	}{
		{"binary-single-cold", wire.ContentType, singleWire, nil, 1},
		{"binary-single-hot", wire.ContentType, singleWire, NewAnswerCache(1 << 18), 1},
		{"binary-batch788-cold", wire.ContentType, batchWire, nil, len(grid)},
		{"binary-batch788-hot", wire.ContentType, batchWire, NewAnswerCache(1 << 18), len(grid)},
		{"json-batch788-cold", "application/json", batchJSON, nil, len(grid)},
		{"json-batch788-hot", "application/json", batchJSON, NewAnswerCache(1 << 18), len(grid)},
	} {
		s := &Server{Registry: reg, Default: "refit-default", Sim: estimate.Sim{Memo: memo}, Cache: v.cache}
		srv := httptest.NewServer(s.Handler())
		client := srv.Client()
		url := srv.URL + "/v1/estimate"
		post := func() {
			resp, err := client.Post(url, v.contentType, bytes.NewReader(v.body))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.Run(v.name, func(b *testing.B) {
			post() // warm the connection (and, for -hot, the answer cache)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(b.N*v.scenarios)/b.Elapsed().Seconds(), "scenarios/s")
		})
		srv.Close()
	}
}
