package datalog_test

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"akb/internal/datalog"
	"akb/internal/kb"
	"akb/internal/store"
)

// BenchmarkRunPlanMix is where to profile the executor from: the four
// templates of bench/'s `datalog` workload (bench/gen.go, datalogQueries)
// over a world's true facts at 8 shards, opened from a v3 snapshot as the
// server opens it, each planned once and run at the workload's limit of
// 100 rows. It gates nothing; bench/ is the performance record.
//
//	go test ./internal/datalog -run '^$' -bench RunPlanMix -cpuprofile /tmp/cpu.pprof
func BenchmarkRunPlanMix(b *testing.B) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 3, EntitiesPerClass: 600})
	var snap bytes.Buffer
	if err := store.NewSharded(store.WorldFacts(w), store.DefaultShards).WriteBinarySnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	st, err := store.ReadBinarySnapshot(&snap)
	if err != nil {
		b.Fatal(err)
	}

	// The class's three most carried attributes, and a value of the first
	// for the constant join.
	class := st.Classes()[0]
	count := map[string]int{}
	for _, f := range st.Lookup(store.Pattern{Class: class}) {
		count[f.Attr]++
	}
	attrs := make([]string, 0, len(count))
	for a := range count {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool {
		if count[attrs[i]] != count[attrs[j]] {
			return count[attrs[i]] > count[attrs[j]]
		}
		return attrs[i] < attrs[j]
	})
	if len(attrs) < 3 {
		b.Fatalf("class %s has %d attributes, need 3", class, len(attrs))
	}
	a := attrs[:3]
	constant := st.Lookup(store.Pattern{Class: class, Attr: a[0]})[0].Value

	v, c := datalog.V, datalog.C
	for _, tpl := range []struct {
		name    string
		clauses []datalog.Clause
	}{
		{"entity-join", []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
		}},
		{"constant-join", []datalog.Clause{
			{Entity: v("f"), Attr: c(a[0]), Value: c(constant)},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
		}},
		{"value-hash", []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("v")},
			{Entity: v("g"), Class: class, Attr: c(a[0]), Value: v("v")},
		}},
		{"chain-3", []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			{Entity: v("f"), Attr: c(a[2]), Value: v("z")},
		}},
	} {
		q := datalog.Query{Clauses: tpl.clauses, Limit: 100}
		plan, err := datalog.PlanQuery(q, st)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tpl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := datalog.RunPlan(context.Background(), st, q, plan, datalog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Total == 0 {
					b.Fatal("the template has no answer on this world")
				}
			}
		})
	}
}
