package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"sync"

	"repro/internal/estimate"
	"repro/internal/serve/wire"
)

// Codec names the wire formats POST /v1/estimate negotiates by
// Content-Type. JSON stays the default (and the golden-pinned format);
// NDJSON is the curl-able streaming fallback; binary is the
// length-prefixed fast path (package wire). Exported because the
// sharding front (internal/serve/front) speaks the same three formats:
// it negotiates with NegotiateCodec, splits requests with the Parse
// helpers, and merges worker answers back with the Write helpers.
type Codec int

const (
	CodecUnknown Codec = iota - 1 // negotiation failed (415)
	CodecJSON
	CodecNDJSON
	CodecBinary
	numCodecs = 3
)

var codecNames = [numCodecs]string{"json", "ndjson", "binary"}

// Content types the endpoint accepts. JSON additionally answers
// requests with no Content-Type at all and curl's -d default
// (x-www-form-urlencoded), which has always carried JSON here.
const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// AcceptPost is the Accept-Post header value a 415 response carries.
const AcceptPost = ctJSON + ", " + ctNDJSON + ", " + wire.ContentType

// NegotiateCodec maps a request's Content-Type to a codec. Unknown
// types are a 415 — falling through to the JSON decoder would surface
// as a confusing syntax 400. wireEnabled false restricts negotiation to
// the JSON content types (the DisableWire server mode).
func NegotiateCodec(contentType string, wireEnabled bool) (Codec, error) {
	if contentType == "" {
		return CodecJSON, nil
	}
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return CodecUnknown, fmt.Errorf("unparseable Content-Type %q; supported: %s", contentType, AcceptPost)
	}
	switch mt {
	case ctJSON, "text/json", "application/x-www-form-urlencoded":
		return CodecJSON, nil
	case ctNDJSON:
		if wireEnabled {
			return CodecNDJSON, nil
		}
	case wire.ContentType:
		if wireEnabled {
			return CodecBinary, nil
		}
	}
	return CodecUnknown, fmt.Errorf("unsupported Content-Type %q; supported: %s", contentType, AcceptPost)
}

func (s *Server) negotiate(r *http.Request) (Codec, error) {
	return NegotiateCodec(r.Header.Get("Content-Type"), !s.DisableWire)
}

// ParseNDJSON decodes one scenario object per non-blank line.
func ParseNDJSON(body []byte) ([]Scenario, error) {
	var scns []Scenario
	for line := 0; len(body) > 0; {
		raw := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			raw, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line++
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var sc Scenario
		if err := json.Unmarshal(raw, &sc); err != nil {
			return nil, fmt.Errorf("decoding NDJSON line %d: %w", line, err)
		}
		scns = append(scns, sc)
	}
	return scns, nil
}

// WriteNDJSONAnswers streams one compact answer object per line. The
// response envelope (registry, backend, provenance) travels in the
// X-Estimate-* headers, like every response.
func WriteNDJSONAnswers(w http.ResponseWriter, answers []Answer) {
	buf := getBuffer()
	defer putBuffer(buf)
	enc := json.NewEncoder(buf)
	for i := range answers {
		if err := enc.Encode(&answers[i]); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", ctNDJSON)
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// resolveWire binds a decoded binary request into res. Each distinct
// (machine, op, algorithm) index triple is bound once per request (see
// Server.addTriple) — the point of the string table — and every
// record then pays one integer-keyed lookup and the (p, m) validation.
func (s *Server) resolveWire(req *wire.Request, scr *scratch, entry *estimate.Entry, res []resolved) error {
	for i, rec := range req.Records {
		tk := uint64(rec.Mach)<<42 | uint64(rec.Op)<<21 | uint64(rec.Alg)
		ti, ok := scr.byWire[tk]
		var err error
		if !ok {
			if ti, err = s.addTriple(scr, entry, req.Table[rec.Mach], req.Table[rec.Op], req.Table[rec.Alg]); err == nil {
				scr.byWire[tk] = ti
			}
		}
		if err == nil {
			err = s.bindScenario(scr, ti, rec.P, rec.M, &res[i])
		}
		if err != nil {
			return fmt.Errorf("scenario %d (%s/%s): %w",
				i, req.Table[rec.Mach], req.Table[rec.Op], err)
		}
	}
	return nil
}

// writeWire encodes the binary response into the scratch buffer (grown
// once, reused across requests) and writes it in one call.
func writeWire(w http.ResponseWriter, scr *scratch, registry, backend, provenance string, answers []Answer) {
	b := wire.AppendResponseHeader(scr.wbuf[:0], registry, backend, provenance, len(answers))
	for i := range answers {
		a := &answers[i]
		wa := wire.Answer{Micros: a.Micros, Fallback: a.Fallback, FallbackReason: a.FallbackReason}
		if a.ExpectedError != nil {
			wa.HasBound = true
			wa.Bound = wire.Bound{
				RelMedian: a.ExpectedError.RelMedian, RelMax: a.ExpectedError.RelMax,
				BasisM: a.ExpectedError.BasisM, Points: a.ExpectedError.Points,
				SegmentMMin: a.ExpectedError.SegmentMMin, SegmentMMax: a.ExpectedError.SegmentMMax,
			}
		}
		b = wire.AppendAnswer(b, wa)
	}
	scr.wbuf = b
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// bufPool recycles the request-body and response-encode buffers across
// requests — per-request buffer allocation was a measurable share of
// the JSON path's cost, and the binary path wants none at all.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuffer keeps one-off giants (a near-cap request body) from
// pinning memory in the pool; a batched 788-scenario response is well
// under it.
const maxPooledBuffer = 4 << 20

func getBuffer() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// scratch is the per-request working set — resolved scenarios, the
// request's distinct triples, answers, their bounds, cache verdicts,
// the decoded binary frame, and the binary encode buffer — pooled so a
// steady request stream allocates O(1) per request on the binary path.
// Slices are resliced and fully overwritten each use.
type scratch struct {
	res     []resolved
	answers []Answer
	bounds  []Bound
	cres    []uint8
	errs    []error
	wreq    wire.Request
	wbuf    []byte
	// tris are the request's distinct triples, indexed from the
	// request-local memos: byWire by binary string-table indices,
	// byName by JSON/NDJSON names. evs collects the handles of the
	// triples with a closed-form scenario, for estimate.Prepare.
	tris   []reqTriple
	byWire map[uint64]int32
	byName map[tripleKey]int32
	evs    []*estimate.Evaluator
}

// reqTriple is one distinct triple of a request: the serving entry's
// handle, and whether any scenario of the triple is answered in closed
// form.
type reqTriple struct {
	ev         *estimate.Evaluator
	closedForm bool
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{byWire: make(map[uint64]int32), byName: make(map[tripleKey]int32)}
}}

func getScratch() *scratch {
	return scratchPool.Get().(*scratch)
}

func putScratch(s *scratch) {
	if cap(s.res) > 1<<16 { // a pathological one-off batch shouldn't pin its arena
		return
	}
	scratchPool.Put(s)
}

// beginTriples resets the request's distinct-triple table.
func (s *scratch) beginTriples() {
	s.tris = s.tris[:0]
	clear(s.byWire)
	clear(s.byName)
}

// closedFormEvaluators returns the handles of the request's triples
// that answer at least one scenario in closed form.
func (s *scratch) closedFormEvaluators() []*estimate.Evaluator {
	s.evs = s.evs[:0]
	for i := range s.tris {
		if s.tris[i].closedForm {
			s.evs = append(s.evs, s.tris[i].ev)
		}
	}
	return s.evs
}

func (s *scratch) resolvedSlice(n int) []resolved {
	if cap(s.res) < n {
		s.res = make([]resolved, n)
	}
	s.res = s.res[:n]
	return s.res
}

func (s *scratch) answerSlice(n int) []Answer {
	if cap(s.answers) < n {
		s.answers = make([]Answer, n)
	}
	s.answers = s.answers[:n]
	return s.answers
}

func (s *scratch) boundSlice(n int) []Bound {
	if cap(s.bounds) < n {
		s.bounds = make([]Bound, n)
	}
	s.bounds = s.bounds[:n]
	return s.bounds
}

func (s *scratch) cacheSlice(n int) []uint8 {
	if cap(s.cres) < n {
		s.cres = make([]uint8, n)
	}
	s.cres = s.cres[:n]
	return s.cres
}

// errSlice returns the per-scenario error slice, cleared: unlike the
// other scratch slices it is sparsely written (most scenarios succeed),
// so stale pooled values must be zeroed.
func (s *scratch) errSlice(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
		return s.errs
	}
	s.errs = s.errs[:n]
	for i := range s.errs {
		s.errs[i] = nil
	}
	return s.errs
}
