package datalog_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/store"
)

// pipelineFacts runs the real extraction/fusion pipeline once and shares
// the fused facts across every test in the package: the property tests
// run against live-pipeline data, not a hand-picked fixture.
var pipelineFacts = sync.OnceValue(func() []store.Fact {
	res, err := core.New().Run(context.Background())
	if err != nil {
		panic(err)
	}
	return store.New(res.Facts()).Facts()
})

// layouts returns every store layout the engine must answer identically
// on: the flat store and entity-hash-sharded stores of several widths.
func layouts(facts []store.Fact) map[string]store.Querier {
	return map[string]store.Querier{
		"flat":      store.New(facts),
		"sharded-2": store.NewSharded(facts, 2),
		"sharded-7": store.NewSharded(facts, 7),
	}
}

// refEval is the ground truth the streaming executor is checked against:
// the brute-force nested loop (bruteForce, in brute_test.go) over the
// clauses in the query's own order.
func refEval(st *store.Sharded, q datalog.Query) [][]string {
	plan, err := datalog.NaivePlan(q, st)
	if err != nil {
		panic(err)
	}
	return bruteForce(st.Facts(), plan, q)
}

func sortedRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// singleClausePatterns derives the pattern matrix from the data itself,
// covering every index the store picks from.
func singleClausePatterns(st *store.Sharded) []store.Pattern {
	facts := st.Facts()
	f0 := facts[0]
	pats := []store.Pattern{
		{},
		{Entity: f0.Entity},
		{Entity: f0.Entity, Attr: f0.Attr},
		{Entity: f0.Entity, Attr: f0.Attr, Value: f0.Value},
		{Attr: f0.Attr},
		{Class: st.Classes()[0]},
		{Class: st.Classes()[0], Attr: f0.Attr},
		{Value: f0.Value},
		{Entity: "no such entity"},
	}
	for _, f := range facts {
		if len(f.Ancestors) > 0 {
			pats = append(pats, store.Pattern{Value: f.Ancestors[len(f.Ancestors)-1]})
			break
		}
	}
	return pats
}

// clauseFor lifts a pattern into a single-clause query: constant terms
// where the pattern is constrained, fresh variables elsewhere.
func clauseFor(p store.Pattern) datalog.Clause {
	c := datalog.Clause{Class: p.Class}
	if p.Entity != "" {
		c.Entity = datalog.C(p.Entity)
	} else {
		c.Entity = datalog.V("e")
	}
	if p.Attr != "" {
		c.Attr = datalog.C(p.Attr)
	} else {
		c.Attr = datalog.V("a")
	}
	if p.Value != "" {
		c.Value = datalog.C(p.Value)
	} else {
		c.Value = datalog.V("v")
	}
	return c
}

// TestSingleClauseMatchesLookup is the API-equivalence property from the
// issue: a one-clause datalog query is store.Lookup — same facts, same
// order, byte-identical across the flat and sharded layouts.
func TestSingleClauseMatchesLookup(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	for name, src := range layouts(facts) {
		t.Run(name, func(t *testing.T) {
			for _, p := range singleClausePatterns(flat) {
				clause := clauseFor(p)
				q := datalog.Query{Clauses: []datalog.Clause{clause}}
				res, err := datalog.Run(context.Background(), src, q, datalog.Options{})
				if err != nil {
					t.Fatalf("Run(%s): %v", q, err)
				}
				want := flat.Lookup(p)
				if res.Total != len(want) || res.Truncated {
					t.Fatalf("%s: total=%d truncated=%v, want %d facts untruncated", q, res.Total, res.Truncated, len(want))
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), len(want))
				}
				for i, f := range want {
					got := map[string]string{}
					for j, v := range res.Vars {
						got[v] = res.Rows[i][j]
					}
					for v, fv := range bindingsOf(clause, f) {
						if got[v] != fv {
							t.Fatalf("%s row %d: ?%s = %q, want %q (fact %+v)", q, i, v, got[v], fv, f)
						}
					}
				}
			}
		})
	}
}

// bindingsOf maps the clause's variables to the fact's fields.
func bindingsOf(c datalog.Clause, f store.Fact) map[string]string {
	out := map[string]string{}
	if c.Entity.IsVar() {
		out[c.Entity.Var] = f.Entity
	}
	if c.Attr.IsVar() {
		out[c.Attr.Var] = f.Attr
	}
	if c.Value.IsVar() {
		out[c.Value.Var] = f.Value
	}
	return out
}

// multiClauseQueries builds join queries from whatever the pipeline
// produced: entity joins, value joins, a disconnected conjunction, a
// ground filter, and a class-restricted sweep.
func multiClauseQueries(st *store.Sharded) []datalog.Query {
	// An entity with at least two attributes: whichever map iteration
	// offers first, so runs sample the fixtures.
	for _, fx := range joinFixtures(st) {
		return fx.queries(st)
	}
	panic("pipeline data has no entity with two attributes")
}

// joinFixture is one entity the join queries can be built around: its
// first two facts carry different attributes.
type joinFixture struct{ ent, attr1, attr2 string }

// joinFixtures returns every qualifying entity of the store, keyed by
// name.
func joinFixtures(st *store.Sharded) map[string]joinFixture {
	out := map[string]joinFixture{}
	facts := st.Facts()
	for i := 0; i+1 < len(facts); i++ {
		first := i == 0 || facts[i-1].Entity != facts[i].Entity
		if first && facts[i+1].Entity == facts[i].Entity && facts[i+1].Attr != facts[i].Attr {
			out[facts[i].Entity] = joinFixture{facts[i].Entity, facts[i].Attr, facts[i+1].Attr}
		}
	}
	return out
}

func (fx joinFixture) queries(st *store.Sharded) []datalog.Query {
	ent, attr1, attr2 := fx.ent, fx.attr1, fx.attr2
	class := st.Classes()[0]
	v := datalog.V
	c := datalog.C
	return []datalog.Query{
		// Entity join: two attributes of the same entity.
		{Clauses: []datalog.Clause{
			{Entity: v("x"), Attr: c(attr1), Value: v("v1")},
			{Entity: v("x"), Attr: c(attr2), Value: v("v2")},
		}},
		// Value join: entities sharing a value for one attribute.
		{Clauses: []datalog.Clause{
			{Entity: v("a"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr1), Value: v("shared")},
		}, Select: []string{"a", "b"}},
		// Disconnected clauses: a cross product.
		{Clauses: []datalog.Clause{
			{Entity: c(ent), Attr: c(attr1), Value: v("v1")},
			{Entity: v("e"), Attr: c(attr2), Value: v("v2"), Class: class},
		}},
		// Ground first clause as an existence filter.
		{Clauses: []datalog.Clause{
			{Entity: c(ent), Attr: c(attr1), Value: v("w")},
			{Entity: v("e"), Attr: c(attr1), Value: v("w")},
		}},
		// Three-clause chain: value join then an entity probe.
		{Clauses: []datalog.Clause{
			{Entity: v("a"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr2), Value: v("w")},
		}},
		// Class-restricted sweep with a repeated variable inside one
		// clause (entity equals value). Usually empty on pipeline data;
		// TestRepeatedVariableWithinClause pins the non-empty case on a
		// seeded fixture.
		{Clauses: []datalog.Clause{
			{Entity: v("e"), Attr: v("a"), Value: v("e"), Class: class},
		}},
	}
}

// TestMultiClauseMatchesReference checks every join query against the
// brute-force evaluator on every layout, pins the naive plan's row order
// to the reference's left-to-right nested-loop order, and requires
// byte-identical results at parallelism 1, 2 and 4.
func TestMultiClauseMatchesReference(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	ctx := context.Background()
	for qi, q := range multiClauseQueries(flat) {
		want := refEval(flat, q)
		wantSorted := sortedRows(want)
		for name, src := range layouts(facts) {
			t.Run(fmt.Sprintf("q%d/%s", qi, name), func(t *testing.T) {
				// The naive plan IS the reference's clause order, so even
				// its row order must match exactly.
				naive, err := datalog.Run(ctx, src, q, datalog.Options{Naive: true})
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				if !rowsEqual(naive.Rows, want) {
					t.Fatalf("naive rows diverge from reference:\n got %v\nwant %v", naive.Rows, want)
				}
				// The greedy plan may emit another nested-loop order but
				// must agree as a bag.
				greedy, err := datalog.Run(ctx, src, q, datalog.Options{})
				if err != nil {
					t.Fatalf("greedy: %v", err)
				}
				if greedy.Total != len(want) {
					t.Fatalf("greedy total = %d, want %d", greedy.Total, len(want))
				}
				if !rowsEqual(sortedRows(greedy.Rows), wantSorted) {
					t.Fatalf("greedy rows diverge from reference as a bag:\n got %v\nwant %v", sortedRows(greedy.Rows), wantSorted)
				}
				// Parallel execution is byte-identical to serial at every
				// worker count.
				for _, par := range []int{2, 4} {
					res, err := datalog.Run(ctx, src, q, datalog.Options{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !rowsEqual(res.Rows, greedy.Rows) || res.Total != greedy.Total || res.Truncated != greedy.Truncated {
						t.Fatalf("parallelism %d diverges from serial", par)
					}
				}
			})
		}
	}
}

// TestRepeatedVariableWithinClause pins the bind-before-check order for
// a variable repeated inside one clause. The seeded fixture is
// adversarial on both sides: facts whose entity equals their own value,
// so the correct result is non-empty and an executor comparing against
// a stale slot returns zero rows; and facts whose value equals the
// PREVIOUS canonical-order fact's entity, so a stale-slot comparison
// would also admit false positives, not just miss matches.
func TestRepeatedVariableWithinClause(t *testing.T) {
	facts := []store.Fact{
		{Entity: "a", Class: "person", Attr: "knows", Value: "z"},
		{Entity: "b", Class: "person", Attr: "knows", Value: "b"}, // self-loop
		// Follows (b,knows,b) in canonical order with value equal to that
		// fact's entity — the false-positive trap.
		{Entity: "c", Class: "person", Attr: "knows", Value: "b"},
		{Entity: "d", Class: "person", Attr: "knows", Value: "d"}, // self-loop
		{Entity: "e", Class: "person", Attr: "knows", Value: "d"},
	}
	queries := []datalog.Query{
		{Clauses: []datalog.Clause{
			{Entity: datalog.V("x"), Attr: datalog.C("knows"), Value: datalog.V("x")},
		}},
		// The class-restricted sweep shape from multiClauseQueries, here
		// guaranteed non-empty.
		{Clauses: []datalog.Clause{
			{Entity: datalog.V("e"), Attr: datalog.V("a"), Value: datalog.V("e"), Class: "person"},
		}, Select: []string{"e"}},
	}
	flat := store.New(facts)
	ctx := context.Background()
	for qi, q := range queries {
		want := refEval(flat, q)
		if !rowsEqual(sortedRows(want), [][]string{{"b"}, {"d"}}) {
			t.Fatalf("q%d: reference result %v, want the two self-loops [[b] [d]]", qi, want)
		}
		for name, src := range layouts(facts) {
			for _, opts := range []datalog.Options{{Naive: true}, {}, {Parallelism: 2}, {Parallelism: 4}} {
				res, err := datalog.Run(ctx, src, q, opts)
				if err != nil {
					t.Fatalf("q%d/%s/%+v: %v", qi, name, opts, err)
				}
				if res.Total != len(want) || !rowsEqual(sortedRows(res.Rows), sortedRows(want)) {
					t.Fatalf("q%d/%s/%+v: got total=%d rows=%v, want %v", qi, name, opts, res.Total, res.Rows, want)
				}
			}
		}
	}
}

// TestLimitSemantics pins /v1/query-style truncation: rows are a prefix
// of the unlimited run, the total stays exact, Truncated flips on.
func TestLimitSemantics(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	// Entity self-join: every entity contributes degree² rows, so the
	// result is guaranteed dense on any pipeline output.
	q := datalog.Query{Clauses: []datalog.Clause{
		{Entity: datalog.V("x"), Attr: datalog.V("a"), Value: datalog.V("v")},
		{Entity: datalog.V("x"), Attr: datalog.V("b"), Value: datalog.V("w")},
	}}
	ctx := context.Background()
	full, err := datalog.Run(ctx, flat, q, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 10 {
		t.Fatalf("fixture too small: total=%d", full.Total)
	}
	for _, par := range []int{1, 4} {
		lim := q
		lim.Limit = 5
		res, err := datalog.Run(ctx, flat, lim, datalog.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 || !res.Truncated || res.Total != full.Total {
			t.Fatalf("par=%d: rows=%d truncated=%v total=%d, want 5/true/%d", par, len(res.Rows), res.Truncated, res.Total, full.Total)
		}
		if !rowsEqual(res.Rows, full.Rows[:5]) {
			t.Fatalf("par=%d: limited rows are not a prefix of the full run", par)
		}
	}
}

// delegate is a Querier that is not the store: a wrapper sees only the
// five methods, so the engine can use nothing else.
type delegate struct{ store.Querier }

// TestEveryLayoutAgreesOnEveryFixture runs the join queries around every
// qualifying entity of the pipeline's KB — all of them, so the check is
// deterministic and exhaustive, not one fixture sampled per run — and
// requires the flat store, an 8-shard store and a delegating wrapper to
// give the same rows in the same order with the same Total, serial and at
// Parallelism 3: plans are ranked by CountEstimate, which must not depend
// on the layout or on who is asking.
func TestEveryLayoutAgreesOnEveryFixture(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	others := map[string]store.Querier{
		"flat":      flat,
		"sharded-8": store.NewSharded(facts, 8),
		"delegate":  delegate{flat},
	}
	fixtures := joinFixtures(flat)
	if len(fixtures) < 50 {
		t.Fatalf("only %d qualifying entities: the pipeline KB shrank", len(fixtures))
	}
	ctx := context.Background()
	for ent, fx := range fixtures {
		for qi, q := range fx.queries(flat) {
			want, err := datalog.Run(ctx, flat, q, datalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for name, src := range others {
				for _, par := range []int{1, 3} {
					got, err := datalog.Run(ctx, src, q, datalog.Options{Parallelism: par})
					if err != nil {
						t.Fatalf("%q q%d %s par=%d: %v", ent, qi, name, par, err)
					}
					if !rowsEqual(got.Rows, want.Rows) || got.Total != want.Total {
						t.Errorf("%q q%d %s par=%d: %d rows (total %d) diverge from the flat store's %d (total %d)",
							ent, qi, name, par, len(got.Rows), got.Total, len(want.Rows), want.Total)
					}
				}
			}
		}
	}
}

// TestGreedyPlanOrdersBySelectivity builds an adversarial store — one
// huge postings list, one tiny one — and checks the greedy plan leads
// with the rare clause while the naive plan pays for the big one, with
// the probe counts to show it.
func TestGreedyPlanOrdersBySelectivity(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 3000; i++ {
		facts = append(facts, store.Fact{Entity: fmt.Sprintf("e%04d", i), Attr: "big", Value: fmt.Sprintf("b%04d", i)})
	}
	for i := 0; i < 3; i++ {
		facts = append(facts, store.Fact{Entity: fmt.Sprintf("e%04d", i), Attr: "rare", Value: "r"})
	}
	st := store.New(facts)
	q, err := datalog.Parse("?x big ?v . ?x rare ?w")
	if err != nil {
		t.Fatal(err)
	}

	plan, err := datalog.PlanQuery(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Steps[0].Clause.Attr.Const; got != "rare" {
		t.Fatalf("greedy plan leads with %q, want the rare clause:\n%s", got, plan)
	}
	if plan.Steps[0].Strategy != datalog.StrategyScan || plan.Steps[1].Strategy != datalog.StrategyProbe {
		t.Fatalf("strategies = %v/%v, want scan/probe", plan.Steps[0].Strategy, plan.Steps[1].Strategy)
	}

	ctx := context.Background()
	greedy, err := datalog.Run(ctx, st, q, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := datalog.Run(ctx, st, q, datalog.Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Total != 3 || naive.Total != 3 {
		t.Fatalf("totals = %d/%d, want 3", greedy.Total, naive.Total)
	}
	if !rowsEqual(sortedRows(greedy.Rows), sortedRows(naive.Rows)) {
		t.Fatal("greedy and naive disagree on the result bag")
	}
	if greedy.Probes*100 > naive.Probes {
		t.Fatalf("greedy probes = %d vs naive %d: want >=100x fewer", greedy.Probes, naive.Probes)
	}
}

// TestPlanStrategies pins the strategy chooser: value-position joins and
// disconnected clauses hash, entity joins probe.
func TestPlanStrategies(t *testing.T) {
	st := store.New([]store.Fact{{Entity: "e", Attr: "a", Value: "v"}})
	cases := []struct {
		query string
		want  []datalog.Strategy
	}{
		{"?x a ?v . ?x b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyProbe}},
		{"?x a ?v . ?y b ?v", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
		{"?x a ?v . ?y b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
		{"e a v . ?x b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
	}
	for _, c := range cases {
		q, err := datalog.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := datalog.NaivePlan(q, st)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range c.want {
			if plan.Steps[i].Strategy != want {
				t.Errorf("%q step %d strategy = %v, want %v", c.query, i, plan.Steps[i].Strategy, want)
			}
		}
	}
}

// TestCancellation proves a cancelled context aborts a long-running join
// instead of finishing it.
func TestCancellation(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 5000; i++ {
		e := fmt.Sprintf("e%05d", i)
		facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: "shared"})
	}
	st := store.New(facts)
	// shared-value self join: 25M bindings, far beyond any deadline.
	q, err := datalog.Parse("?x a ?v . ?y a ?v")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		if _, err := datalog.Run(ctx, st, q, datalog.Options{Parallelism: par}); err == nil {
			t.Fatalf("par=%d: cancelled run returned no error", par)
		}
	}
}

// TestStreamingDoesNotMaterialize is the issue's memory criterion: a
// join with tens of thousands of matches, capped at 10 rows, must not
// allocate anything like an intermediate relation. The threshold is far
// below the >3 MB a materialised result (or intermediate) would cost,
// but leaves room for fixed executor setup.
func TestStreamingDoesNotMaterialize(t *testing.T) {
	const n = 20000
	facts := make([]store.Fact, 0, 2*n)
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("e%05d", i)
		facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: fmt.Sprintf("v%05d", i)})
		facts = append(facts, store.Fact{Entity: e, Attr: "b", Value: "w"})
	}
	st := store.New(facts)
	q, err := datalog.Parse("?x a ?v . ?x b ?w")
	if err != nil {
		t.Fatal(err)
	}
	q.Limit = 10

	ctx := context.Background()
	// Warm once so lazy initialisation is off the books.
	if _, err := datalog.Run(ctx, st, q, datalog.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := datalog.Run(ctx, st, q, datalog.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n || len(res.Rows) != 10 || !res.Truncated {
		t.Fatalf("total=%d rows=%d truncated=%v, want %d/10/true", res.Total, len(res.Rows), res.Truncated, n)
	}
	delta := after.TotalAlloc - before.TotalAlloc
	const budget = 256 << 10
	if delta > budget {
		t.Fatalf("executor allocated %d bytes across a %d-match join; budget %d — is an intermediate relation being materialised?", delta, n, budget)
	}
}

// TestRunRejectsInvalid covers the executor's validation surface.
func TestRunRejectsInvalid(t *testing.T) {
	st := store.New([]store.Fact{{Entity: "e", Attr: "a", Value: "v"}})
	bad := []datalog.Query{
		{},
		{Clauses: []datalog.Clause{{Entity: datalog.V("x"), Attr: datalog.C("a"), Value: datalog.V("v")}}, Limit: -2},
		{Clauses: []datalog.Clause{{Entity: datalog.V("x"), Attr: datalog.C("a"), Value: datalog.V("v")}}, Select: []string{"nope"}},
	}
	for i, q := range bad {
		if _, err := datalog.Run(context.Background(), st, q, datalog.Options{}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	if !strings.Contains(datalog.StrategyScan.String(), "scan") {
		t.Error("Strategy.String broken")
	}
}

// pollCounter is a context that counts how often it is asked whether it is
// done, and is done from the cancelAt-th time on (never, when 0).
type pollCounter struct {
	context.Context
	polls    int
	cancelAt int
}

func (c *pollCounter) Err() error {
	if c.polls++; c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// productKB is n entities with an x and n more with a y: `?a x ?v . ?b y ?w`
// over it is a product of n×n rows whose second step is one hash bucket of n
// facts — all of the fan-out is in the last step.
func productKB(n int) []store.Fact {
	facts := make([]store.Fact, 0, 2*n)
	for i := 0; i < n; i++ {
		facts = append(facts,
			store.Fact{Entity: fmt.Sprintf("a%05d", i), Attr: "x", Value: fmt.Sprintf("v%05d", i)},
			store.Fact{Entity: fmt.Sprintf("b%05d", i), Attr: "y", Value: fmt.Sprintf("w%05d", i)})
	}
	return facts
}

// TestCancelledProductReturnsPromptly bounds what a cancelled query still
// does, in matches and in time. The executor polls its context once every
// 1024 matches handed to a step — so no more than 1024 are produced between
// two polls, wherever in the plan they fan out. A product of independent
// clauses is counted once the page is full, so the query run here is one the
// executor still enumerates: `?a x ?v . ?b y ?w . ?b y ?u`, whose last step
// joins on ?b, bound inside the suffix from the second step on — every one of
// the n×n bindings of the first two steps is handed to the second, and only
// the last is counted. In time: n = 20 000 over 8 shards, cancelled 30 ms into
// the run, is back with context.Canceled within 20 ms of the cancel on the
// serial and on the parallel path. The product without the join is counted
// at once: its exact total comes back inside those 30 ms.
func TestCancelledProductReturnsPromptly(t *testing.T) {
	q, err := datalog.Parse("?a x ?v . ?b y ?w . ?b y ?u")
	if err != nil {
		t.Fatal(err)
	}
	q.Limit = 10 // rows are counted, not kept: the run is bounded by time alone
	product, err := datalog.Parse("?a x ?v . ?b y ?w")
	if err != nil {
		t.Fatal(err)
	}
	product.Limit = 10

	t.Run("rows", func(t *testing.T) {
		st := store.NewSharded(productKB(300), 8)
		ctx := &pollCounter{Context: context.Background()}
		res, err := datalog.Run(ctx, st, q, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// 300 matches handed to the first step and 300 a binding to the second.
		if handed := 300 + 300*300; res.Total != 300*300 || ctx.polls < handed/1024 {
			t.Errorf("total %d (want %d) under %d polls of the context, want one every 1024 of %d matches at least", res.Total, 300*300, ctx.polls, handed)
		}
		// Cancelled from some poll on, the run ends at that poll.
		ctx = &pollCounter{Context: context.Background(), cancelAt: 5}
		if _, err := datalog.Run(ctx, st, q, datalog.Options{}); err != context.Canceled || ctx.polls != 5 {
			t.Errorf("cancelled at the 5th poll: err %v after %d polls, want context.Canceled and no poll more", err, ctx.polls)
		}
	})

	st := store.NewSharded(productKB(20000), 8)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("time/parallelism=%d", par), func(t *testing.T) {
			const bound = 20 * time.Millisecond
			// Another tenant's burst on the box only ever adds time: the best
			// of three tries is the executor's own.
			var late time.Duration
			for try := 0; try < 3; try++ {
				ctx, cancel := context.WithCancel(context.Background())
				var cancelled time.Time
				timer := time.AfterFunc(30*time.Millisecond, func() {
					cancelled = time.Now()
					cancel()
				})
				_, err := datalog.Run(ctx, st, q, datalog.Options{Parallelism: par})
				returned := time.Now()
				timer.Stop()
				cancel()
				if err != context.Canceled {
					t.Fatalf("err %v, want context.Canceled (4·10⁸ bindings, each handed to a step, cannot finish in 30 ms)", err)
				}
				if d := returned.Sub(cancelled); try == 0 || d < late {
					late = d
				}
				if late <= bound {
					break
				}
			}
			if late > bound {
				t.Errorf("Run returned %v after the cancel, want within %v", late, bound)
			}

			var took time.Duration
			for try := 0; try < 3; try++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				start := time.Now()
				res, err := datalog.Run(ctx, st, product, datalog.Options{Parallelism: par})
				took = time.Since(start)
				cancel()
				if err == nil {
					if res.Total != 20000*20000 || len(res.Rows) != 10 {
						t.Fatalf("%s: total %d and %d rows, want %d and 10", product, res.Total, len(res.Rows), 20000*20000)
					}
					return
				}
			}
			t.Errorf("%s: no total within 30 ms (the last try took %v), want the product counted", product, took)
		})
	}
}

// TestCountedTotalNeverWraps: a counted total that does not fit in an int is
// ErrTotalOverflow, never a wrapped or negative total. A star of k clauses on
// an entity with 20 values of one attribute is a product of 20^k rows: 20^14
// fits in an int64, 20^15 and 20^16 do not.
func TestCountedTotalNeverWraps(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 20; i++ {
		facts = append(facts, store.Fact{Entity: "e", Attr: "a", Value: fmt.Sprintf("v%02d", i)})
	}
	star := func(k int) datalog.Query {
		var clauses []string
		for i := 0; i < k; i++ {
			clauses = append(clauses, fmt.Sprintf("e a ?v%d", i))
		}
		q, err := datalog.Parse(strings.Join(clauses, " . "))
		if err != nil {
			t.Fatal(err)
		}
		q.Limit = 1
		return q
	}
	for name, src := range layouts(facts) {
		for _, par := range []int{1, 3} {
			opts := datalog.Options{Parallelism: par}
			res, err := datalog.Run(context.Background(), src, star(14), opts)
			if err != nil || res.Total != 1638400000000000000 || len(res.Rows) != 1 {
				t.Errorf("%s par=%d: 14 clauses: total %v, %v; want 20^14 = 1638400000000000000", name, par, res, err)
			}
			for _, k := range []int{15, 16} {
				res, err := datalog.Run(context.Background(), src, star(k), opts)
				if !errors.Is(err, datalog.ErrTotalOverflow) {
					t.Errorf("%s par=%d: %d clauses: %+v, %v; want ErrTotalOverflow", name, par, k, res, err)
				}
			}
		}
	}
}

// TestCountedTailDoesNotGrow: once the page is full the rest of a star join
// is counted — each binding of the first clause takes one read of each other
// step, and allocates nothing — so a page of one row costs the same
// allocations at 400 entities as at 4 000, and Result.Probes is exactly one
// read per counted step per binding.
func TestCountedTailDoesNotGrow(t *testing.T) {
	q, err := datalog.Parse("?f a ?x . ?f b ?y . ?f c ?z")
	if err != nil {
		t.Fatal(err)
	}
	q.Limit = 1
	allocs := map[int]float64{}
	for _, n := range []int{400, 4000} {
		// Every entity has one a, two b and three c: six rows.
		var facts []store.Fact
		for i := 0; i < n; i++ {
			e := fmt.Sprintf("e%04d", i)
			facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: "x"})
			for j := 0; j < 2; j++ {
				facts = append(facts, store.Fact{Entity: e, Attr: "b", Value: fmt.Sprintf("y%d", j)})
			}
			for j := 0; j < 3; j++ {
				facts = append(facts, store.Fact{Entity: e, Attr: "c", Value: fmt.Sprintf("z%d", j)})
			}
		}
		st := store.NewSharded(facts, 8)
		plan, err := datalog.NaivePlan(q, st)
		if err != nil {
			t.Fatal(err)
		}
		res, err := datalog.RunPlan(context.Background(), st, q, plan, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The scan; the first binding's reads until the page is full — its b
		// and the c of its first b — and the count of the c of its second b;
		// then two counted reads (b, c) for each of the other n-1 bindings.
		if want := int64(1 + 2 + 1 + 2*(n-1)); res.Total != 6*n || res.Probes != want {
			t.Errorf("%d entities: total %d and %d probes, want %d and %d", n, res.Total, res.Probes, 6*n, want)
		}
		allocs[n] = testing.AllocsPerRun(10, func() {
			if _, err := datalog.RunPlan(context.Background(), st, q, plan, datalog.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[400] != allocs[4000] {
		t.Errorf("a one-row page allocates %.0f times at 400 entities and %.0f at 4000: the counted tail allocates", allocs[400], allocs[4000])
	}
}

// TestRunPlanAllocations pins what a page costs the allocator: rows are cut
// from chunks that double from 8 rows to 128, so a row costs no allocation
// of its own and a 100-row page of a 2-clause entity join a handful more
// than a 6-row page — two per doubling, a chunk and the page's growth —
// where a row each made it 94 more.
func TestRunPlanAllocations(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 400; i++ {
		e := fmt.Sprintf("e%03d", i)
		facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: "v" + e}, store.Fact{Entity: e, Attr: "b", Value: "w" + e})
	}
	st := store.NewSharded(facts, 8)
	q, err := datalog.Parse("?x a ?v . ?x b ?w")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := datalog.PlanQuery(q, st)
	if err != nil {
		t.Fatal(err)
	}
	page := func(limit int) float64 {
		q := q
		q.Limit = limit
		return testing.AllocsPerRun(10, func() {
			res, err := datalog.RunPlan(context.Background(), st, q, plan, datalog.Options{})
			if err != nil || len(res.Rows) != limit || res.Total != 400 {
				t.Fatalf("limit %d: %d rows of %d, err %v", limit, len(res.Rows), res.Total, err)
			}
		})
	}
	small, large, larger := page(6), page(100), page(120)
	t.Logf("allocations of a page of 6 rows: %.0f, of 100: %.0f, of 120: %.0f", small, large, larger)
	if large-small > 8 {
		t.Errorf("a 100-row page costs %.0f allocations more than a 6-row page (%.0f and %.0f), want at most 8", large-small, large, small)
	}
	if larger != large {
		t.Errorf("a 120-row page costs %.0f allocations and a 100-row page %.0f: inside one chunk the row count must not show", larger, large)
	}
}
