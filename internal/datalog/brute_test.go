package datalog_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"akb/internal/datalog"
	"akb/internal/resilience"
	"akb/internal/store"
)

// bruteKB is a small seedless KB shaped for joins: n entities in three
// classes (every sixth in none), three attributes over two shared value
// spaces (so value joins have answers, one value space under a hierarchy
// root), a multi-valued attribute, and a "knows" edge whose values are
// entity names — every eighth a self-loop — so an entity variable can be
// bound from a value position. One value, "v1", is also an entity.
func bruteKB(n int) []store.Fact {
	name := func(i int) string { return fmt.Sprintf("n%02d", i%n) }
	var facts []store.Fact
	for i := 0; i < n; i++ {
		class := fmt.Sprintf("K%d", i%3)
		if i%6 == 5 {
			class = ""
		}
		add := func(attr, value string, anc ...string) {
			facts = append(facts, store.Fact{Entity: name(i), Class: class, Attr: attr, Value: value, Confidence: 1, Ancestors: anc})
		}
		add("a", fmt.Sprintf("v%d", i%5), "top")
		add("b", fmt.Sprintf("w%d", i%4))
		if i%6 == 0 {
			add("b", fmt.Sprintf("w%d", (i+1)%4))
		}
		if i%4 != 3 {
			add("c", fmt.Sprintf("v%d", (i+2)%5), "top")
		}
		if i%8 == 0 {
			add("knows", name(i))
		}
		add("knows", name(i*7+3))
	}
	facts = append(facts, store.Fact{Entity: "v1", Class: "K0", Attr: "a", Value: name(3), Confidence: 1})
	return facts
}

// bruteForce is what a plan means: a nested loop over every fact, clause by
// clause in the plan's order, each level in canonical fact order, a constant
// value matching through the hierarchy and a variable exactly. It shares no
// code with the store's reads or the executor, and its row order is the
// left-deep nested-loop order the executor promises.
func bruteForce(facts []store.Fact, plan *datalog.Plan, q datalog.Query) [][]string {
	sel := q.Select
	if len(sel) == 0 {
		sel = q.Vars()
	}
	env := map[string]string{}
	var rows [][]string
	var rec func(i int)
	rec = func(i int) {
		if i == len(plan.Steps) {
			row := make([]string, len(sel))
			for j, v := range sel {
				row[j] = env[v]
			}
			rows = append(rows, row)
			return
		}
		c := plan.Steps[i].Clause
		for fi := range facts {
			f := &facts[fi]
			if c.Class != "" && f.Class != c.Class {
				continue
			}
			var added []string
			unify := func(t datalog.Term, field string, anc []string) bool {
				if !t.IsVar() {
					return field == t.Const || slices.Contains(anc, t.Const)
				}
				if cur, ok := env[t.Var]; ok {
					return cur == field
				}
				env[t.Var] = field
				added = append(added, t.Var)
				return true
			}
			if unify(c.Entity, f.Entity, nil) && unify(c.Attr, f.Attr, nil) && unify(c.Value, f.Value, f.Ancestors) {
				rec(i + 1)
			}
			for _, v := range added {
				delete(env, v)
			}
		}
	}
	rec(0)
	return rows
}

// plansOf returns the query's greedy and naive plans over src.
func plansOf(t testing.TB, q datalog.Query, src store.Querier) map[string]*datalog.Plan {
	t.Helper()
	greedy, err := datalog.PlanQuery(q, src)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	naive, err := datalog.NaivePlan(q, src)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return map[string]*datalog.Plan{"greedy": greedy, "naive": naive}
}

// checkAgainstBruteForce runs the plan at the limit serial and with three
// workers, and requires of each the brute-force rows, in order, and its
// total. The two must also charge the same probes: the first clause of these
// KBs fits one batch, whose worker counts every binding past the page one at
// a time — the charge the serial path's merged counts must make.
func checkAgainstBruteForce(t testing.TB, where string, src store.Querier, q datalog.Query, plan *datalog.Plan, want [][]string, limit int) {
	t.Helper()
	q.Limit = limit
	page := want
	if limit > 0 && limit < len(want) {
		page = want[:limit]
	}
	var probes [2]int64
	for i, par := range []int{1, 3} {
		res, err := datalog.RunPlan(context.Background(), src, q, plan, datalog.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%s limit=%d par=%d: %v", where, limit, par, err)
		}
		if res.Total != len(want) || res.Truncated != (len(page) < len(want)) || !rowsEqual(res.Rows(), page) {
			t.Errorf("%s limit=%d par=%d: total=%d truncated=%v rows=%v\nwant total=%d rows=%v\nplan:\n%s",
				where, limit, par, res.Total, res.Truncated, res.Rows(), len(want), page, plan)
		}
		probes[i] = res.Probes
	}
	if probes[0] != probes[1] {
		t.Errorf("%s limit=%d: %d probes serial, %d with three workers\nplan:\n%s", where, limit, probes[0], probes[1], plan)
	}
}

// joinShapes are the joins the executor reads differently, each with the
// strategies its naive plan (the query's own order) must come out with, so
// that a shape keeps testing what its name says.
var joinShapes = []struct{ name, query, naive string }{
	{"star on the first clause's entity", `?f a ?x . ?f b ?y . ?f c ?z`, "scan probe probe"},
	{"star with the attribute joined too", `?f ?p ?x . ?f ?p ?y . ?f b ?w`, "scan probe probe"},
	{"chain re-joining an entity bound two steps earlier", `?f knows ?g . ?g a ?x . ?f b ?y`, "scan probe probe"},
	{"entity first bound from a value position", `?f knows ?g . ?g a ?x . ?g b ?y`, "scan probe probe"},
	{"entity bound out of a hash bucket", `?f a ?v . ?g c ?v . ?g b ?w`, "scan hash probe"},
	{"repeated variable inside the run-local clause", `?f b ?y . ?f knows ?f`, "scan probe"},
	{"class on the first clause", `?e:K1 a ?x . ?e b ?y`, "scan probe"},
	{"class on the run-local clause", `?e a ?x . ?e:K1 b ?y . ?e:K1 c top`, "scan probe probe"},
	{"class nobody in the run has", `?e:K1 a ?x . ?e:K2 b ?y`, "scan probe"},
	{"constant entity, then its neighbours' runs", `n00 knows ?g . ?g ?p ?v . ?g knows ?h . ?h a ?x`, "scan probe probe probe"},
	{"cross product in front of an entity join", `n00 a ?x . ?e:K2 c ?z . ?e b ?y`, "scan hash probe"},
}

// TestRunMatchesBruteForce checks the executor against the nested loop it
// stands for — rows, their order, and the total — for every join shape, on
// one, three and eight shards and through an idle chaos wrapper, under the
// greedy and the naive plan, serial and with three workers, at the limits
// around the total: none, one row, all but one, all, and more.
func TestRunMatchesBruteForce(t *testing.T) {
	facts := bruteKB(24)
	idle := store.NewChaosController(&resilience.FaultPlan{Default: resilience.StageFault{FailProb: 1}})
	idle.SetEnabled(false)
	layouts := map[string]store.Querier{
		"1 shard":    store.New(facts),
		"3 shards":   store.NewSharded(facts, 3),
		"8 shards":   store.NewSharded(facts, 8),
		"chaos idle": idle.Wrap(store.NewSharded(facts, 8)),
	}
	canonical := store.New(facts).Facts()
	for _, shape := range joinShapes {
		q, err := datalog.Parse(shape.query)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		for layout, src := range layouts {
			for kind, plan := range plansOf(t, q, src) {
				where := fmt.Sprintf("%s (%s), %s, %s plan", shape.name, shape.query, layout, kind)
				if kind == "naive" {
					var got []string
					for _, st := range plan.Steps {
						got = append(got, st.Strategy.String())
					}
					if s := strings.Join(got, " "); s != shape.naive {
						t.Errorf("%s: strategies %q, want %q", where, s, shape.naive)
					}
				}
				want := bruteForce(canonical, plan, q)
				if len(want) == 0 && !strings.Contains(shape.name, "nobody") {
					t.Errorf("%s: the fixture has no answer", where)
				}
				for _, limit := range []int{0, 1, len(want) - 1, len(want), len(want) + 1} {
					if limit >= 0 {
						checkAgainstBruteForce(t, where, src, q, plan, want, limit)
					}
				}
			}
		}
	}
	if idle.Calls() != 0 {
		t.Errorf("the idle chaos wrapper counted %d reads", idle.Calls())
	}
}

// selects counts the reads opened through it.
type selects struct {
	store.Querier
	n atomic.Int64 // parallel workers open reads too
}

func (s *selects) Select(p store.Pattern) store.Cursor {
	s.n.Add(1)
	return s.Querier.Select(p)
}

// TestEntityJoinOpensNoRead pins where a probe reads, from outside: a join
// on a variable a cursor bound from an entity position opens nothing on the
// store after the first clause's scan — its probes, still counted one a
// binding, read inside the run that cursor handed out — while a variable
// bound from a value position or out of a hash bucket opens a read per
// probe, and the hash build one more.
func TestEntityJoinOpensNoRead(t *testing.T) {
	st := store.NewSharded(bruteKB(24), 8)
	for _, tc := range []struct {
		query  string
		opened func(probes int64) int64
	}{
		{`?f a ?x . ?f b ?y . ?f c ?z`, func(int64) int64 { return 1 }},
		{`?f knows ?g . ?g a ?x . ?f b ?y`, func(probes int64) int64 { return 1 + (probes-1)/2 }}, // every ?g has an a
		{`?f knows ?g . ?g b ?y`, func(probes int64) int64 { return probes }},
		{`?f a ?v . ?g c ?v . ?g b ?w`, func(probes int64) int64 { return probes - int64(len(st.Lookup(store.Pattern{Attr: "a"}))) }},
	} {
		q, err := datalog.Parse(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := datalog.NaivePlan(q, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 3} {
			src := &selects{Querier: st}
			res, err := datalog.RunPlan(context.Background(), src, q, plan, datalog.Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := datalog.RunPlan(context.Background(), st, q, plan, datalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Probes != plain.Probes || res.Total != plain.Total || res.Total == 0 {
				t.Errorf("%s par=%d: probes=%d total=%d through the wrapper, %d and %d (want above 0) without", tc.query, par, res.Probes, res.Total, plain.Probes, plain.Total)
			}
			if want := tc.opened(res.Probes); src.n.Load() != want {
				t.Errorf("%s par=%d: %d reads opened on the store for %d probes, want %d", tc.query, par, src.n.Load(), res.Probes, want)
			}
		}
	}
}

// TestRunLocalReadDoesNotAllocate pins the cost of the probe an entity join
// makes: taking the run a cursor hands out and reading inside it by number
// (Run.Where) — narrowed by attribute, by class and hierarchical value, by an
// exact value, or not at all — touches no heap, on one shard and on a
// scatter.
func TestRunLocalReadDoesNotAllocate(t *testing.T) {
	for _, shards := range []int{1, 8} {
		st := store.NewSharded(bruteKB(24), shards)
		cur := st.Select(store.Pattern{Attr: "a"}) // 25 facts: one for each of the 21 calls below
		names := cur.Names()
		id := func(name string) uint32 {
			n, ok := names.ID(name)
			if !ok {
				t.Fatalf("the fixture has no %q", name)
			}
			return n
		}
		type read struct {
			attr, class, value uint32
			exact              bool
		}
		no := uint32(store.NoID)
		reads := []read{{id("b"), no, no, false}, {id("c"), id("K1"), id("top"), false}, {no, no, id("n03"), true}, {no, no, no, false}}
		matched := 0
		allocs := testing.AllocsPerRun(20, func() {
			if !cur.Next() {
				t.Fatal("the outer cursor ran dry")
			}
			run := cur.Run()
			for _, rd := range reads {
				in := run.Where(rd.attr, rd.class, rd.value, rd.exact)
				for in.Next() {
					matched++
				}
			}
		})
		if allocs != 0 || matched == 0 {
			t.Errorf("%d shards: reads inside a run matched %d facts at %.1f allocations each, want some at 0", shards, matched, allocs)
		}
	}
}
