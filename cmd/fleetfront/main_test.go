package main

import (
	"reflect"
	"testing"

	"repro/internal/serve/front"
)

func TestParseWorkers(t *testing.T) {
	cases := []struct {
		name, spec string
		want       []front.Worker // nil: an error is expected
	}{
		{"name=url", "w0=http://10.0.0.1:8081, w1=https://10.0.0.2:8082",
			[]front.Worker{{Name: "w0", URL: "http://10.0.0.1:8081"}, {Name: "w1", URL: "https://10.0.0.2:8082"}}},
		{"missing scheme", "w0=localhost:8081",
			[]front.Worker{{Name: "w0", URL: "http://localhost:8081"}}},
		{"missing name", "localhost:8081", nil},
		{"empty name", "=localhost:8081", nil},
		{"empty spec", "  ", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseWorkers(c.spec)
			if c.want == nil {
				if err == nil {
					t.Fatalf("parseWorkers(%q) = %v, want an error", c.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseWorkers(%q): %v", c.spec, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parseWorkers(%q) = %v, want %v", c.spec, got, c.want)
			}
		})
	}
}
