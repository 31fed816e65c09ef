package qjoin_test

import (
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
)

// FuzzParseRanking: every ranking ParseRanking accepts formats to a spec
// that parses back to the same ranking — same aggregate, same variables,
// same identity key — and formats to itself. Seeds: testdata/fuzz.
func FuzzParseRanking(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		r, err := qjoin.ParseRanking(s)
		if err != nil {
			return
		}
		spec, err := qjoin.FormatRanking(r)
		if err != nil {
			t.Fatalf("FormatRanking(ParseRanking(%q)): %v", s, err)
		}
		r2, err := qjoin.ParseRanking(spec)
		if err != nil {
			t.Fatalf("ParseRanking(%q) (formatted from %q): %v", spec, s, err)
		}
		if r2.Agg != r.Agg || !reflect.DeepEqual(r2.Vars, r.Vars) || r2.Key() != r.Key() {
			t.Fatalf("%q → %q: round trip changed the ranking (%v %v → %v %v)", s, spec, r.Agg, r.Vars, r2.Agg, r2.Vars)
		}
		if spec2, _ := qjoin.FormatRanking(r2); spec2 != spec {
			t.Fatalf("format not idempotent: %q → %q", spec, spec2)
		}
	})
}

// FuzzParseQuery: every query ParseQuery accepts formats to the canonical
// form, which parses back to the same atoms and formats to itself. Seeds:
// testdata/fuzz.
func FuzzParseQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, err := qjoin.ParseQuery(s)
		if err != nil {
			return
		}
		canon := qjoin.FormatQuery(q)
		q2, err := qjoin.ParseQuery(canon)
		if err != nil {
			t.Fatalf("ParseQuery(%q) (formatted from %q): %v", canon, s, err)
		}
		if !reflect.DeepEqual(q2.Atoms, q.Atoms) {
			t.Fatalf("%q → %q: round trip changed the atoms (%v → %v)", s, canon, q.Atoms, q2.Atoms)
		}
		if got := qjoin.FormatQuery(q2); got != canon {
			t.Fatalf("format not idempotent: %q → %q", canon, got)
		}
	})
}
