package serve

import (
	"encoding/json"
	"slices"
	"testing"
)

// requestEnvelope is the {registry, scenarios} request shape, the form
// FuzzEstimateRequest re-marshals every accepted JSON body into.
type requestEnvelope struct {
	Registry  string     `json:"registry"`
	Scenarios []Scenario `json:"scenarios"`
}

// ndjsonBody encodes scenarios one compact object per line.
func ndjsonBody(t testing.TB, scns []Scenario) []byte {
	var out []byte
	for _, sc := range scns {
		line, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzEstimateRequest throws arbitrary bytes at the text request
// parsers: ParseJSONRequest (bare object, bare array, or envelope) and
// ParseNDJSON. The invariants: no panic on any input, and an accepted
// body re-marshals to one that parses back to the same registry and
// scenarios — so re-encoding a request, as the sharding front does for
// every sub-batch, never changes what it asks.
func FuzzEstimateRequest(f *testing.F) {
	for _, body := range []string{goldenFixedRequest, goldenPiecewiseRequest} {
		var scns []Scenario
		if err := json.Unmarshal([]byte(body), &scns); err != nil {
			f.Fatal(err)
		}
		env, err := json.Marshal(requestEnvelope{Registry: "paper", Scenarios: scns})
		if err != nil {
			f.Fatal(err)
		}
		single, err := json.Marshal(scns[0])
		if err != nil {
			f.Fatal(err)
		}
		for _, seed := range [][]byte{[]byte(body), env, single, ndjsonBody(f, scns)} {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if reg, scns, err := ParseJSONRequest(body); err == nil {
			again, err := json.Marshal(requestEnvelope{Registry: reg, Scenarios: scns})
			if err != nil {
				t.Fatalf("re-marshaling accepted JSON request: %v", err)
			}
			reg2, scns2, err := ParseJSONRequest(again)
			if err != nil {
				t.Fatalf("re-marshaled JSON request rejected: %v\n%s", err, again)
			}
			if reg2 != reg || !slices.Equal(scns2, scns) {
				t.Fatalf("JSON round trip changed the request:\n%q %+v\n%q %+v", reg, scns, reg2, scns2)
			}
		}
		if scns, err := ParseNDJSON(body); err == nil {
			again := ndjsonBody(t, scns)
			scns2, err := ParseNDJSON(again)
			if err != nil {
				t.Fatalf("re-marshaled NDJSON request rejected: %v\n%s", err, again)
			}
			if !slices.Equal(scns2, scns) {
				t.Fatalf("NDJSON round trip changed the request:\n%+v\n%+v", scns, scns2)
			}
		}
	})
}
