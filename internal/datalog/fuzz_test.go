package datalog_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"akb/internal/datalog"
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

// fuzzQuery spells a query out of bytes: three a clause — entity, attribute,
// value, each picking a term from a small vocabulary over bruteKB's names, so
// that variables repeat, join across positions and meet constants that exist
// — for up to three clauses, then one for the limit. Nearly every input is a
// valid query; the text still goes through Parse.
func fuzzQuery(data []byte) (text string, limit int) {
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
	if len(data) > 0 {
		limit = int(data[0]) % 8
	}
	return strings.Join(clauses, " . "), limit
}

// FuzzRunMatchesBruteForce runs whatever query the bytes spell, on one shard
// and on three, under the greedy and the naive plan, serial and with three
// workers, and requires the rows, their order and the total of the nested
// loop over all facts that the plan stands for. Run the finder with:
//
//	go test -fuzz FuzzRunMatchesBruteForce ./internal/datalog
func FuzzRunMatchesBruteForce(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 2, 0, 0, 3, 1, 0, 4, 2, 3}, // ?x a ?x . ?x b ?y . ?x c ?z, limit 3
		{0, 5, 1, 1, 2, 3, 0, 3, 2, 1}, // ?x knows ?y . ?y a ?v . ?x b ?z, limit 1
		{0, 2, 3, 1, 4, 3, 1, 3, 2},    // ?x a ?v . ?y c ?v . ?y b ?z
		{3, 0, 0, 0, 0, 1, 0},          // ?x:K0 ?p ?x . ?x ?p ?y
		{6, 5, 1, 1, 0, 3, 1, 5, 2, 2}, // n00 knows ?y . ?y ?p ?v . ?y knows ?z, limit 2
		{0, 1, 0},                      // ?x ?x ?x
		{4, 2, 6, 0, 3, 1, 2, 4, 6},    // ?y:K1 a top . ?x b ?y . ?z c top
	} {
		f.Add(seed)
	}
	facts := bruteKB(8)
	canonical := store.New(facts).Facts()
	layouts := []store.Querier{store.New(facts), store.NewSharded(facts, 3)}
	f.Fuzz(func(t *testing.T, data []byte) {
		text, limit := fuzzQuery(data)
		if text == "" {
			return
		}
		q, err := datalog.Parse(text)
		if err != nil {
			t.Fatalf("%q spelled from %v does not parse: %v", text, data, err)
		}
		for i, src := range layouts {
			for kind, plan := range plansOf(t, q, src) {
				want := bruteForce(canonical, plan, q)
				for _, par := range []int{1, 3} {
					checkAgainstBruteForce(t, fmt.Sprintf("%q, layout %d, %s plan", text, i, kind), src, q, plan, want, limit, par)
				}
			}
		}
	})
}
