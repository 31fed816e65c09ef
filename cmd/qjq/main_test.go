package main

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/loadfmt"
)

// Parsing and validation are the shared library implementations
// (qjoin.ParseQuery / ParseRanking / ParsePhis, internal/loadfmt), tested
// in wire_test.go and loadfmt_test.go; here only the qjq-specific glue is
// covered.

func TestRelFlags(t *testing.T) {
	r := relFlags{}
	if err := r.Set("R=/tmp/x.csv"); err != nil {
		t.Fatal(err)
	}
	if r["R"] != "/tmp/x.csv" {
		t.Fatalf("relFlags = %v", r)
	}
	if err := r.Set("nonsense"); err == nil {
		t.Fatal("bad flag accepted")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestApplyUpdateEndToEnd(t *testing.T) {
	// A tiny end-to-end pass of the -update path: compile, apply, answer.
	q, err := qjoin.ParseQuery("R(x,y),S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := qjoin.NewDB().
		MustAdd("R", 2, [][]int64{{1, 2}, {3, 4}}).
		MustAdd("S", 2, [][]int64{{2, 7}, {4, 9}})
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "delta.txt")
	os.WriteFile(path, []byte("-R,3,4\n+R,5,2\n"), 0o644)
	delta, err := loadfmt.ParseDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	up, err := applyUpdate(p, delta, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := up.Count().Int64(); n != 2 { // (1,2,7) and (5,2,7)
		t.Fatalf("count after update = %d, want 2", n)
	}
	if n := p.Count().Int64(); n != 2 { // base plan untouched: (1,2,7), (3,4,9)
		t.Fatalf("base count = %d, want 2", n)
	}
}

func TestSaveLoadPlanFile(t *testing.T) {
	// The -save/-load glue: snapshot to disk atomically, restore with the
	// byte loader, answers byte-identical.
	q, err := qjoin.ParseQuery("R(x,y),S(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	db := qjoin.NewDB().
		MustAdd("R", 2, [][]int64{{1, 2}, {3, 4}, {5, 2}}).
		MustAdd("S", 2, [][]int64{{2, 7}, {4, 9}})
	p, err := qjoin.Prepare(q, db)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.snap")
	if err := savePlanFile(p, path); err != nil {
		t.Fatal(err)
	}
	got, err := loadPlanFile(path, qjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := qjoin.Sum("x", "z")
	want, err := p.Median(f)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Median(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("restored median %v, fresh %v", have, want)
	}
	if _, err := loadPlanFile(filepath.Join(t.TempDir(), "missing.snap"), qjoin.Options{}); err == nil {
		t.Fatal("missing file accepted")
	}

	// A restored 2-shard plan refuses -sample and -baseline, the two
	// single-engine calls qjq makes, with a typed error instead of a panic.
	sp, err := qjoin.PrepareSharded(q, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(t.TempDir(), "sharded.snap")
	if err := savePlanFile(sp, spath); err != nil {
		t.Fatal(err)
	}
	sgot, err := loadPlanFile(spath, qjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sgot.Shards() != 2 {
		t.Fatalf("restored %d shards, want 2", sgot.Shards())
	}
	_, err = sgot.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Eps: 0.2, Delta: 0.05, Mode: qjoin.ModeSample, Rand: rand.New(rand.NewSource(1))})
	var ae *qjoin.ArgError
	if !errors.As(err, &ae) || ae.Field != "mode" {
		t.Fatalf("-sample on a restored sharded plan: err = %v, want an *ArgError on mode", err)
	}
	if _, err := sgot.BaselineQuantile(f, 0.5); !errors.Is(err, qjoin.ErrShardedPlan) {
		t.Fatalf("-baseline on a restored sharded plan: err = %v, want ErrShardedPlan", err)
	}
}

func TestWeightString(t *testing.T) {
	f := qjoin.Sum("x")
	if got := weightString(f, qjoin.Weight{K: 42}); got != "42" {
		t.Fatalf("scalar weight = %q", got)
	}
	lex := qjoin.Lex("x", "y")
	if got := weightString(lex, qjoin.Weight{Vec: []int64{1, 2}}); got != "[1 2]" {
		t.Fatalf("lex weight = %q", got)
	}
}
