package main

import (
	"strings"
	"testing"
)

// TestBuildAdmission: the three policies, their parameter errors, and
// the refusal of a parameter flag given for a policy that is not the
// selected one (it used to start an unpoliced daemon without a word).
func TestBuildAdmission(t *testing.T) {
	flags := func(names ...string) map[string]bool {
		set := make(map[string]bool)
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	cases := []struct {
		label   string
		name    string
		rate    float64
		burst   float64
		weights string
		set     map[string]bool
		policy  string // Name() of the policy built; "" for none
		errHas  string // substring of the error; "" for success
	}{
		{label: "default", name: "none", rate: 100},
		{label: "empty name", name: "", rate: 100},
		{label: "token bucket", name: "token-bucket", rate: 200, burst: 8,
			set: flags("admission", "admission-rate", "admission-burst"), policy: "token-bucket"},
		{label: "token bucket, default rate", name: "token-bucket", rate: 100, set: flags("admission"), policy: "token-bucket"},
		{label: "fair", name: "fair", rate: 100, burst: 4, weights: "heavy=4,light=1",
			set: flags("admission", "admission-weights", "admission-burst"), policy: "fair"},
		{label: "fair, no weights", name: "fair", rate: 100, set: flags("admission"), policy: "fair"},

		{label: "unknown policy", name: "lottery", rate: 100, errHas: `unknown -admission policy "lottery"`},
		{label: "zero rate", name: "token-bucket", rate: 0, set: flags("admission-rate"), errHas: "-admission-rate > 0"},
		{label: "bad weights", name: "fair", rate: 100, weights: "heavy", set: flags("admission-weights"), errHas: "-admission-weights:"},

		{label: "orphan rate", name: "none", rate: 50, set: flags("admission-rate"), errHas: "-admission-rate is set"},
		{label: "orphan burst", name: "none", rate: 100, burst: 8, set: flags("admission-burst"), errHas: "-admission-burst is set"},
		{label: "orphan weights", name: "none", rate: 100, weights: "a=1", set: flags("admission-weights"), errHas: "-admission-weights is set"},
		{label: "rate with fair", name: "fair", rate: 50, set: flags("admission", "admission-rate"), errHas: "-admission-rate is set"},
		{label: "weights with token bucket", name: "token-bucket", rate: 100, weights: "a=1",
			set: flags("admission", "admission-weights"), errHas: "-admission-weights is set"},
	}
	for _, tc := range cases {
		p, err := buildAdmission(tc.name, tc.rate, tc.burst, tc.weights, tc.set)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: error %v, want one containing %q", tc.label, err, tc.errHas)
			}
			if p != nil {
				t.Errorf("%s: a policy came back beside the error", tc.label)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.label, err)
			continue
		}
		switch {
		case tc.policy == "" && p != nil:
			t.Errorf("%s: built %q, want no policy", tc.label, p.Name())
		case tc.policy != "" && (p == nil || p.Name() != tc.policy):
			t.Errorf("%s: built %v, want %q", tc.label, p, tc.policy)
		}
	}
}
