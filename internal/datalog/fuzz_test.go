package datalog_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"akb/internal/datalog"
	"akb/internal/resilience"
	"akb/internal/store"
)

// FuzzParse drives the surface-grammar parser with arbitrary input and
// holds two invariants on every accepted query: it validates, and it
// round-trips through String — rendering and re-parsing yields the
// identical Query. Run the finder with:
//
//	go test -fuzz FuzzParse ./internal/datalog
func FuzzParse(f *testing.F) {
	seeds := []string{
		"?f director ?d",
		`?f:Film "country of origin" ?c . ?f award ?a`,
		"?x a ?v\n?y a ?v .",
		`"Casa \"Blanca\"" has "a . dot\nand \\ slash"`,
		"?e rating 3.5",
		"?x ?x ?x",
		"e a v",
		`"" a v`,
		"? a b",
		"?x:",
		`a b "unterminated`,
		"?a ?b ?c . ?d ?e ?f . ?g ?h ?i",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := datalog.Parse(input)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a query that fails Validate: %v", input, err)
		}
		rendered := q.String()
		again, err := datalog.Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, whose rendering %q does not re-parse: %v", input, q, rendered, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("round trip changed the query:\n in: %q\n 1st: %+v\n via: %q\n 2nd: %+v", input, q, rendered, again)
		}
	})
}

// fuzzKB spells a KB out of the first bytes: one for how many facts (1 to
// 10), then four a fact — entity, attribute, value, class — each picked from
// a small vocabulary, and returns the bytes left over. The vocabularies are
// laid out so that the bytes can spell every shape a join reads differently:
// a class that changes inside an entity's run, the empty class, several
// values of one attribute, a value that is also an entity ("v1", "n00"…), and
// a value that is another value's ancestor (v2's are v1 and top, n02's v0 and
// top). Facts that repeat a key collapse in the store, as they would anywhere.
func fuzzKB(data []byte) ([]store.Fact, []byte) {
	entities := []string{"n00", "n01", "n02", "n03", "v1"}
	attrs := []string{"a", "b", "c", "knows"}
	values := []string{"v0", "v1", "v2", "top", "n00", "n01", "n02", "n03", "w0"}
	classes := []string{"K0", "K1", "K2", ""}
	ancestors := map[string][]string{"v0": {"top"}, "v1": {"top"}, "v2": {"v1", "top"}, "n02": {"v0", "top"}}
	if len(data) == 0 {
		return nil, nil
	}
	n := 1 + int(data[0])%10
	data = data[1:]
	var facts []store.Fact
	for ; n > 0 && len(data) >= 4; n-- {
		value := values[int(data[2])%len(values)]
		facts = append(facts, store.Fact{
			Entity:     entities[int(data[0])%len(entities)],
			Attr:       attrs[int(data[1])%len(attrs)],
			Value:      value,
			Class:      classes[int(data[3])%len(classes)],
			Confidence: 1,
			Ancestors:  ancestors[value],
		})
		data = data[4:]
	}
	return facts, data
}

// fuzzQuery spells a query out of bytes: three a clause — entity, attribute,
// value, each picking a term from a small vocabulary over fuzzKB's names, so
// that variables repeat, join across positions and meet constants that exist
// — for up to three clauses. Nearly every input is a valid query; the text
// still goes through Parse.
func fuzzQuery(data []byte) string {
	vocab := [3][]string{
		{"?x", "?y", "?z", "?x:K0", "?y:K1", "?z:K2", "n00", "n03", "v1", `"no such"`},
		{"?p", "?x", "a", "b", "c", "knows", `"no such"`},
		{"?x", "?y", "?z", "?v", "?p", "v1", "top", "n00", "n03", "w0"},
	}
	var clauses []string
	for len(data) >= 3 && len(clauses) < 3 {
		var terms [3]string
		for pos := range terms {
			terms[pos] = vocab[pos][int(data[pos])%len(vocab[pos])]
		}
		clauses = append(clauses, strings.Join(terms[:], " "))
		data = data[3:]
	}
	return strings.Join(clauses, " . ")
}

// fuzzSeedKB is a KB of eight facts with every shape fuzzKB can spell: n00
// has two values of a and changes class from K0 to K1 inside its run; n01
// knows n00, an entity; v1 is an entity and a value; n02's v2 has v1 for an
// ancestor, which n03 holds as its value, in the empty class.
var fuzzSeedKB = []byte{7,
	0, 0, 0, 0, // n00 a v0 K0
	0, 0, 1, 0, // n00 a v1 K0
	0, 1, 8, 1, // n00 b w0 K1
	1, 3, 4, 1, // n01 knows n00 K1
	2, 0, 2, 2, // n02 a v2 K2
	3, 2, 1, 3, // n03 c v1 ""
	4, 0, 6, 0, // v1 a n02 K0
	1, 2, 0, 1, // n01 c v0 K1
}

// FuzzRunMatchesBruteForce runs whatever query the bytes spell on whatever KB
// they spell — on one shard, three and eight, after a v3 round trip and
// through an idle chaos wrapper, under the greedy and the naive plan, serial
// and with three workers, at no limit and at every limit from 1 to the total
// + 1, so that the counted tail starts at every cut — and requires the rows,
// their order and the total of the nested loop over all facts that the plan
// stands for. Run the finder with:
//
//	go test -fuzz FuzzRunMatchesBruteForce ./internal/datalog
func FuzzRunMatchesBruteForce(f *testing.F) {
	for _, query := range [][]byte{
		{0, 2, 1, 0, 3, 2},          // ?x a ?y . ?x b ?z: a star on n00's run
		{0, 5, 1, 1, 2, 3},          // ?x knows ?y . ?y a ?v: an entity bound from a value
		{0, 2, 3, 1, 4, 3},          // ?x a ?v . ?y c ?v: a hash join on the value
		{0, 2, 6, 0, 0, 3},          // ?x a top . ?x ?p ?v: a constant through the hierarchy
		{0, 2, 1, 1, 0, 2},          // ?x a ?y . ?y ?p ?z: values that are entities
		{8, 2, 1, 1, 0, 2},          // v1 a ?y . ?y ?p ?z: an entity that is a value
		{0, 4, 3, 1, 2, 3},          // ?x c ?v . ?y a ?v: a bound value matches exactly, not v1's specialisations
		{0, 2, 3, 1, 4, 2},          // ?x a ?v . ?y c ?z: a product, counted
		{4, 0, 3, 1, 2, 2},          // ?y:K1 ?p ?v . ?y a ?z: n00's class changes inside its run
		{0, 2, 3, 1, 4, 2, 0, 3, 4}, // ?x a ?v . ?y c ?z . ?x b ?p: a product, then a join on the run
		// Stars whose page fills before the first clause ends, so that what
		// it has left is counted by one merge of the store's lists:
		{0, 0, 3, 3, 2, 6},          // ?x ?p ?v . ?x:K0 a top: a class and a value through the hierarchy on the counted step, over n00's three matches, whose class changes
		{0, 0, 1, 0, 2, 5},          // ?x ?p ?y . ?x a v1: a constant value, verbatim on n00 and through v2's ancestor on n02
		{0, 2, 1, 3, 2, 6, 0, 3, 2}, // ?x a ?y . ?x:K0 a top . ?x b ?z: two counted steps, the second empty where the first is not
	} {
		f.Add(append(slices.Clone(fuzzSeedKB), query...))
	}
	// ?x ?p ?x over n00 a n00 and n03 a top, at limit 1: the clause checks a
	// variable it binds, so the tail past the page is enumerated, not counted
	// (an executor that counted it found a total of 2, not 1, in a second).
	f.Add([]byte("000002010212"))
	idle := store.NewChaosController(&resilience.FaultPlan{Default: resilience.StageFault{FailProb: 1}})
	idle.SetEnabled(false)
	f.Fuzz(func(t *testing.T, data []byte) {
		facts, rest := fuzzKB(data)
		text := fuzzQuery(rest)
		if len(facts) == 0 || text == "" {
			return
		}
		q, err := datalog.Parse(text)
		if err != nil {
			t.Fatalf("%q spelled from %v does not parse: %v", text, data, err)
		}
		var file bytes.Buffer
		if err := store.NewSharded(facts, 3).WriteBinarySnapshot(&file); err != nil {
			t.Fatal(err)
		}
		back, err := store.ReadBinarySnapshot(&file)
		if err != nil {
			t.Fatal(err)
		}
		layouts := map[string]store.Querier{
			"1 shard":    store.New(facts),
			"3 shards":   store.NewSharded(facts, 3),
			"8 shards":   store.NewSharded(facts, 8),
			"v3":         back,
			"chaos idle": idle.Wrap(store.NewSharded(facts, 8)),
		}
		canonical := store.New(facts).Facts()
		for layout, src := range layouts {
			for kind, plan := range plansOf(t, q, src) {
				want := bruteForce(canonical, plan, q)
				for limit := 0; limit <= len(want)+1; limit++ {
					checkAgainstBruteForce(t, fmt.Sprintf("%q on %v, %s, %s plan", text, facts, layout, kind), src, q, plan, want, limit)
				}
			}
		}
		if idle.Calls() != 0 {
			t.Fatalf("the idle chaos wrapper counted %d reads", idle.Calls())
		}
	})
}
