package datalog_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/store"
)

// BenchmarkRunPlanMix is where to profile the executor from: the query pool
// of bench/'s `datalog` workload on that workload's own KB. The KB is built
// as bench/fixture.go builds it — the seed-7 pipeline at scale 16, its
// facts on 8 shards, written as a v3 snapshot and opened from it, as the
// server opens it — and the pool is spelled as bench/gen.go's datalogQueries
// spells it: 12 rounds of four 2-clause entity joins, four selective-constant
// joins, one value-position hash join and one 3-clause chain. Each query is
// planned once and run at the workload's limit of 100 rows; one
// sub-benchmark a template, and `mix`, the whole pool in its 4:4:1:1
// proportion. It gates nothing; bench/ is the performance record.
//
//	go test ./internal/datalog -run '^$' -bench RunPlanMix -cpuprofile /tmp/cpu.pprof
func BenchmarkRunPlanMix(b *testing.B) {
	res, err := core.New(core.WithSeed(7), core.WithScale(16)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := store.NewSharded(res.Facts(), store.DefaultShards).WriteBinarySnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	st, err := store.ReadBinarySnapshot(&snap)
	if err != nil {
		b.Fatal(err)
	}
	pool := workloadQueries(st.Facts(), 7)
	type planned struct {
		q    datalog.Query
		plan *datalog.Plan
	}
	legs := map[string][]planned{}
	for i, q := range pool {
		q.Limit = 100
		plan, err := datalog.PlanQuery(q, st)
		if err != nil {
			b.Fatal(err)
		}
		p := planned{q, plan}
		legs["mix"] = append(legs["mix"], p)
		legs[templateOf(i)] = append(legs[templateOf(i)], p)
	}
	for _, leg := range []string{"entity-join", "constant-join", "value-hash", "chain-3", "mix"} {
		qs := legs[leg]
		b.Run(leg, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := qs[i%len(qs)]
				if _, err := datalog.RunPlan(context.Background(), st, p.q, p.plan, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// templateOf names the template of the i-th query of workloadQueries: a round
// is four entity joins, four constant joins, a value hash and a chain.
func templateOf(i int) string {
	switch i % 10 {
	case 0, 1, 2, 3:
		return "entity-join"
	case 4, 5, 6, 7:
		return "constant-join"
	case 8:
		return "value-hash"
	}
	return "chain-3"
}

// workloadQueries is bench/gen.go's datalogQueries over canonical facts, draw
// for draw: a class's core attributes are those at least half its entities
// carry, the classes with three or more take turns, and the draws come from
// the seed's "datalog" stream.
func workloadQueries(facts []store.Fact, seed int64) []datalog.Query {
	hasPair := map[[2]string]bool{}
	byAttr := map[[2]string][]store.Fact{}
	perClass := map[string]int{}
	for i, f := range facts {
		if i == 0 || f.Entity != facts[i-1].Entity {
			perClass[f.Class]++
		}
		hasPair[[2]string{f.Entity, f.Attr}] = true
		if f.Class != "" {
			k := [2]string{f.Class, f.Attr}
			byAttr[k] = append(byAttr[k], f)
		}
	}
	coreAttrs := map[string][]string{}
	for k, fs := range byAttr {
		if 2*len(fs) >= perClass[k[0]] {
			coreAttrs[k[0]] = append(coreAttrs[k[0]], k[1])
		}
	}
	var classes []string
	for c, attrs := range coreAttrs {
		sort.Strings(attrs)
		if len(attrs) >= 3 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)

	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, "datalog")
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	v, c := datalog.V, datalog.C
	var out []datalog.Query
	n := 0
	pick := func() (class string, attrs []string) {
		class = classes[n%len(classes)]
		n++
		idx := r.Perm(len(coreAttrs[class]))
		a := coreAttrs[class]
		return class, []string{a[idx[0]], a[idx[1]], a[idx[2]]}
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 4; i++ {
			class, a := pick()
			out = append(out, datalog.Query{Clauses: []datalog.Clause{
				{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
				{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			}})
		}
		for i := 0; i < 4; i++ {
			class, a := pick()
			fs := byAttr[[2]string{class, a[0]}]
			f := fs[r.Intn(len(fs))]
			for try := 0; !hasPair[[2]string{f.Entity, a[1]}] && try < len(fs); try++ {
				f = fs[(r.Intn(len(fs))+try)%len(fs)]
			}
			out = append(out, datalog.Query{Clauses: []datalog.Clause{
				{Entity: v("f"), Attr: c(a[0]), Value: c(f.Value)},
				{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			}})
		}
		class, a := pick()
		out = append(out, datalog.Query{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("v")},
			{Entity: v("g"), Class: class, Attr: c(a[0]), Value: v("v")},
		}})
		class, a = pick()
		out = append(out, datalog.Query{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			{Entity: v("f"), Attr: c(a[2]), Value: v("z")},
		}})
	}
	return out
}
