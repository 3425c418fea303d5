package front

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/estimate"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// workerAnswerSeeds asks an in-process worker one three-scenario batch
// — a bounded closed-form answer, an unbounded one, and a sim fallback
// — in every codec, and returns the 200 bodies it wrote, keyed by codec.
func workerAnswerSeeds(f *testing.F) map[serve.Codec][]byte {
	srv := &serve.Server{
		Registry: testRegistry(f, estimate.NewSampleMemo()), Default: "test-cal", Config: tinyCfg,
	}
	h := srv.Handler()
	scns := []serve.Scenario{
		{Machine: "T3D", Op: "broadcast", P: 8, M: 16},
		{Machine: "SP2", Op: "alltoall", P: 4, M: 1024},
		{Machine: "T3D", Op: "broadcast", P: 16, M: 16},
	}
	js, err := json.Marshal(scns)
	if err != nil {
		f.Fatal(err)
	}
	var nd []byte
	for _, sc := range scns {
		line, _ := json.Marshal(sc)
		nd = append(append(nd, line...), '\n')
	}
	seeds := map[serve.Codec][]byte{}
	for codec, req := range map[serve.Codec]struct {
		ct   string
		body []byte
	}{
		serve.CodecJSON:   {"application/json", js},
		serve.CodecNDJSON: {"application/x-ndjson", nd},
		serve.CodecBinary: {wire.ContentType, wireRequest(scns)},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(req.body))
		r.Header.Set("Content-Type", req.ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed worker answered %d: %s", rec.Code, rec.Body)
		}
		seeds[codec] = rec.Body.Bytes()
	}
	return seeds
}

// FuzzWorkerAnswers throws arbitrary bytes at the front's decoders of
// worker answers (group.decode over JSON, NDJSON via
// parseNDJSONAnswers, and the binary wire frame) — bytes another
// process wrote. The invariants: no panic on any input, and a decode
// that succeeds holds exactly one answer per scenario of the sub-batch,
// so a short or long worker answer fails over instead of merging.
func FuzzWorkerAnswers(f *testing.F) {
	codecs := []serve.Codec{serve.CodecJSON, serve.CodecNDJSON, serve.CodecBinary}
	seeds := workerAnswerSeeds(f)
	for _, codec := range codecs {
		for _, n := range []uint8{3, 2, 4} {
			f.Add(uint8(codec), n, seeds[codec])
		}
	}
	f.Add(uint8(serve.CodecNDJSON), uint8(1), []byte("\n  \n{}\n"))
	f.Add(uint8(serve.CodecJSON), uint8(0), []byte(`{"answers":null}`))

	f.Fuzz(func(t *testing.T, codec, n uint8, body []byte) {
		c := codecs[int(codec)%len(codecs)]
		g := &group{idx: make([]int, n)}
		if err := g.decode(c, http.Header{}, body); err != nil {
			return
		}
		got := len(g.answers)
		if c == serve.CodecBinary {
			got = len(g.wanswers)
		}
		if got != int(n) {
			t.Fatalf("codec %d decoded %d answers for a %d-scenario sub-batch without an error", c, got, n)
		}
	})
}
