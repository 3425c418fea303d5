package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct {
		n       int
		idx     int
		eff     float64
		tooFew  bool
		comment string
	}{
		{n: 1000, idx: 989, eff: 0.99, comment: "p99 leaves exactly ten beyond"},
		{n: 5000, idx: 4949, eff: 0.99, comment: "p99 leaves fifty beyond"},
		{n: 500, idx: 489, eff: 0.98, comment: "p99 would leave five; lowered to p98"},
		{n: 11, idx: 0, eff: 1.0 / 11, comment: "the smallest sample with ten beyond its first rank"},
		{n: 10, tooFew: true, comment: "no rank leaves ten beyond"},
	} {
		idx, eff, ok := tailIndex(tc.n, 0.99)
		if ok == tc.tooFew {
			t.Errorf("n=%d (%s): ok=%v", tc.n, tc.comment, ok)
			continue
		}
		if tc.tooFew {
			continue
		}
		if idx != tc.idx || math.Abs(eff-tc.eff) > 1e-12 {
			t.Errorf("n=%d (%s): idx %d eff %v, want %d %v", tc.n, tc.comment, idx, eff, tc.idx, tc.eff)
		}
		if beyond := tc.n - 1 - idx; beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported rank", tc.n, beyond)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	var l latencies
	for i := 0; i < 980; i++ {
		l = append(l, time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		l = append(l, failedLatency)
	}
	s, err := summarize(l)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != time.Millisecond || s.Tail != failedLatency || s.N != 1000 {
		t.Fatalf("got %+v: 2%% failures must put p99 past any limit", s)
	}
}

func TestSummarizeRunTailIsMedianOfSlices(t *testing.T) {
	const n = 1000 * tailSlices
	lat := make(latencies, n)
	at := make([]time.Duration, n)
	// Stored newest first, as merged per-client logs may be; slice k of
	// the run is times [1000k, 1000k+1000) ms.
	idx := func(ms int) int { return n - 1 - ms }
	for ms := 0; ms < n; ms++ {
		at[idx(ms)] = time.Duration(ms) * time.Millisecond
		lat[idx(ms)] = time.Millisecond
		if ms >= 2000 && ms < 2200 { // a stall inside the third slice
			lat[idx(ms)] = 50 * time.Millisecond
		}
	}
	s, err := summarizeRun(lat, at)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail != time.Millisecond || s.P50 != time.Millisecond || s.N != n || s.TailPct != 0.99 {
		t.Fatalf("got %+v: a stall confined to one slice must not decide the tail", s)
	}
	// Failures in most slices do decide it.
	for ms := 0; ms < 1000*(tailSlices/2+1); ms += 50 {
		lat[idx(ms)] = failedLatency
	}
	if s, err = summarizeRun(lat, at); err != nil || s.Tail != failedLatency {
		t.Fatalf("got %+v, %v: failures in most slices must put the tail past any limit", s, err)
	}
}

func TestFallbackStreamDeterministicPerSeed(t *testing.T) {
	stream := func(seed int64) []byte {
		l := &fallbackLoad{seed: seed}
		var all bytes.Buffer
		// Two passes, so the pass boundary is covered too.
		for i := 0; i < 2*fbDrawsPerPass/fbBatch; i++ {
			_, body := l.request(i)
			all.Write(body)
			all.WriteByte('\n')
		}
		return all.Bytes()
	}
	a, b, c := stream(7), stream(7), stream(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same request stream")
	}
}

func TestZipfDrawsSkewed(t *testing.T) {
	draws := zipfDraws(newRand(3, tagFallback), 300, 10000)
	counts := make([]int, 300)
	for _, d := range draws {
		if d < 0 || d >= 300 {
			t.Fatalf("draw %d outside the pool", d)
		}
		counts[d]++
	}
	if counts[0] < 10*counts[50] {
		t.Fatalf("rank 0 drawn %d times, rank 50 %d: not Zipf-skewed", counts[0], counts[50])
	}
}

func TestGeneratedScenariosStayInTheirRegions(t *testing.T) {
	ts := allTriples()
	if len(ts) != 79 {
		t.Fatalf("%d triples, want the 79 serve -warm precalibrates", len(ts))
	}
	for _, sc := range fallbackPool(newRand(1, tagFallback), ts) {
		if sc.P >= envPMin && sc.P <= envPMax || sc.P > fbHighMax || sc.P < 2 {
			t.Fatalf("fallback scenario %+v: p must leave [8,32] and stay in [2,64]", sc)
		}
	}
	for _, sc := range heldOut(newRand(1, tagHeldOut), ts, 2000) {
		if onCalibrationGrid(sc) || sc.P < envPMin || sc.P > envPMax || sc.M > envMMax {
			t.Fatalf("held-out scenario %+v is on the calibration grid or outside the envelope", sc)
		}
	}
}

func TestCheckAnswerCatchesOneULP(t *testing.T) {
	want := expect{micros: 123.456}
	if err := checkAnswer(want, 123.456, false, ""); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	for _, got := range []float64{math.Nextafter(123.456, math.Inf(1)), math.Nextafter(123.456, 0)} {
		if checkAnswer(want, got, false, "") == nil {
			t.Errorf("answer %v, one ulp from %v, accepted", got, want.micros)
		}
	}
	if checkAnswer(want, 123.456, true, "out of range") == nil {
		t.Error("fallback answer accepted where a closed-form one is due")
	}
	fb := expect{micros: math.NaN(), fallback: true, reason: "r"}
	if err := checkAnswer(fb, 9, true, "r"); err != nil {
		t.Errorf("fallback with the expected reason rejected: %v", err)
	}
	if checkAnswer(fb, 9, true, "other") == nil {
		t.Error("fallback with another reason accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "front.handler", Start: 0, End: 100},
		// Two overlapping children cover [10,50] once.
		{ID: 2, Parent: 1, Name: "front.subrequest", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "front.subrequest", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "front.subrequest", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "serve.handler", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestLadderFindsTheKnee(t *testing.T) {
	rung := func(lat time.Duration) openResult {
		var r openResult
		for i := 0; i < 200; i++ {
			r.lat = append(r.lat, lat)
		}
		return r
	}
	capacity := ladderRates[23]
	calls := 0
	best, _, rungs := ladder(time.Hour, func(rate float64, _ time.Duration) openResult {
		calls++
		// The second search meets one noisy rung below capacity.
		if rate > capacity || (calls == 8 && rate < capacity) {
			return rung(time.Second)
		}
		return rung(time.Millisecond)
	})
	if best != capacity {
		t.Fatalf("sustained %v, want %v: the median of the searches", best, capacity)
	}
	if rungs != calls || rungs > ladderSearches*7 {
		t.Fatalf("%d rungs for %d calls: each search bisects %d rungs", rungs, calls, len(ladderRates))
	}
	if best, _, _ := ladder(time.Hour, func(float64, time.Duration) openResult { return rung(time.Second) }); best != 0 {
		t.Fatalf("sustained %v where no rung meets the limit, want 0", best)
	}
}
