package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"akb/internal/rdf"
)

// obs is one observation handed to Evidence.Add.
type obs struct{ entity, attr, value, source, doc string }

func addAll(e *Evidence, in []obs) *Evidence {
	for _, o := range in {
		e.Add(o.entity, o.attr, o.value, o.source, o.doc)
	}
	return e
}

// counted counts e and mints its statements as extractor "x".
func counted(e *Evidence) []rdf.Statement {
	e.Count()
	return e.AppendStatements(nil, "x", supportTimesSources)
}

// supportTimesSources makes the confidence spell out what the aggregator
// counted: support 3 from 2 sources scores 0.32.
func supportTimesSources(support, sources int) float64 {
	return float64(support)/10 + float64(sources)/100
}

// render prints statements as "entity|attr|value|source|doc|conf".
func render(stmts []rdf.Statement) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%s|%.2f", AttrFromIRI(s.Subject), AttrFromIRI(s.Predicate),
			s.Object.Value, s.Provenance.Source, s.Provenance.Document, s.Confidence)
	}
	return out
}

// TestEvidenceContract checks the aggregator on inputs the pipeline does
// not happen to produce. A case's shard observations go to a second
// aggregator that is merged into the first; adding them to the first
// directly, after its own, must give the same statements.
func TestEvidenceContract(t *testing.T) {
	cases := []struct {
		name  string
		in    []obs
		shard []obs
		late  []obs // added after the merge
		want  []string
	}{
		{
			name: "a source's second observation counts but keeps the first document",
			in: []obs{
				{"E", "a", "v", "s1", "doc1"},
				{"E", "a", "v", "s1", "doc2"},
				{"E", "a", "v", "s2", "doc3"},
			},
			want: []string{"E|a|v|s1|doc1|0.32", "E|a|v|s2|doc3|0.32"},
		},
		{
			name: "claims sort by entity, attr, value whatever the insertion order",
			in: []obs{
				{"F", "a", "v", "s", "d"},
				{"E", "b", "v", "s", "d"},
				{"E", "a", "w", "s", "d"},
				{"E", "a", "v", "s", "d"},
			},
			want: []string{"E|a|v|s|d|0.11", "E|a|w|s|d|0.11", "E|b|v|s|d|0.11", "F|a|v|s|d|0.11"},
		},
		{
			name: "one claim's statements follow first-seen source order, not name order",
			in: []obs{
				{"E", "a", "v", "zeta", "d1"},
				{"E", "a", "v", "alpha", "d2"},
				{"E", "a", "v", "mid", "d3"},
				{"E", "a", "v", "alpha", "d4"},
			},
			want: []string{"E|a|v|zeta|d1|0.43", "E|a|v|alpha|d2|0.43", "E|a|v|mid|d3|0.43"},
		},
		{
			// Minting rewrites ' ' to '_', which sorts after 'B' where the
			// space sorted before it: the IRIs order AB < A_b.
			name: "names order as strings, not as their IRIs",
			in: []obs{
				{"AB", "x", "v", "s", "d"},
				{"A b", "x", "v", "s", "d"},
				{"E", "p q", "v", "s", "d"},
				{"E", "pQ", "v", "s", "d"},
			},
			want: []string{"A b|x|v|s|d|0.11", "AB|x|v|s|d|0.11", "E|p q|v|s|d|0.11", "E|pQ|v|s|d|0.11"},
		},
		{
			name: "shards with disjoint entities merge to what one aggregator holds",
			in: []obs{
				{"B", "a", "v", "s1", "d1"},
				{"A", "a", "v", "s1", "d2"},
				{"A", "a", "v", "s2", "d3"},
			},
			shard: []obs{
				{"D", "a", "v", "s1", "d4"},
				{"C", "b", "w", "s3", "d5"},
				{"C", "b", "w", "s3", "d6"},
			},
			want: []string{
				"A|a|v|s1|d2|0.22", "A|a|v|s2|d3|0.22", "B|a|v|s1|d1|0.11",
				"C|b|w|s3|d5|0.21", "D|a|v|s1|d4|0.11",
			},
		},
		{
			name:  "a claim two shards share merges as if the second came later",
			in:    []obs{{"A", "a", "v", "s1", "d1"}, {"A", "a", "v", "s2", "d2"}},
			shard: []obs{{"A", "a", "v", "s3", "d3"}, {"A", "a", "v", "s1", "d4"}},
			want:  []string{"A|a|v|s1|d1|0.43", "A|a|v|s2|d2|0.43", "A|a|v|s3|d3|0.43"},
		},
		{
			name:  "what is added after a merge comes after the shard's, also of a claim held before it",
			in:    []obs{{"A", "a", "v", "s1", "d1"}, {"B", "a", "v", "s1", "d1"}},
			shard: []obs{{"A", "a", "v", "s3", "d3"}},
			late:  []obs{{"A", "a", "v", "s4", "d4"}, {"A", "a", "v", "s1", "d5"}, {"A", "a", "w", "s4", "d4"}, {"A", "a", "w", "s4", "d6"}},
			want: []string{
				"A|a|v|s1|d1|0.43", "A|a|v|s3|d3|0.43", "A|a|v|s4|d4|0.43", "A|a|w|s4|d4|0.21", "B|a|v|s1|d1|0.11",
			},
		},
		{name: "no observations, no statements"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			merged := addAll(NewEvidence(), tc.in)
			merged.Merge(addAll(NewEvidence(), tc.shard))
			addAll(merged, tc.late)
			got := counted(merged)
			if fmt.Sprintf("%q", render(got)) != fmt.Sprintf("%q", tc.want) {
				t.Errorf("got  %q\nwant %q", render(got), tc.want)
			}
			one := counted(addAll(addAll(addAll(NewEvidence(), tc.in), tc.shard), tc.late))
			if !reflect.DeepEqual(got, one) {
				t.Errorf("merged %q\none    %q", render(got), render(one))
			}
			if again := counted(merged); !reflect.DeepEqual(got, again) {
				t.Errorf("read twice: %q\nthen %q", render(got), render(again))
			}
			for _, s := range got {
				if s.Provenance.Extractor != "x" {
					t.Errorf("extractor = %q, want x", s.Provenance.Extractor)
				}
			}
		})
	}
	if a, b := EntityIRI("A b"), EntityIRI("AB"); a.Compare(b) <= 0 {
		t.Fatalf("fixture no longer separates string order from IRI order: %s vs %s", a, b)
	}
}

// oracleStatements is what Evidence promises, by nested loops over the raw
// observations in the order they were made: each (entity, attr, value) is
// one claim whose support is how often it was observed, each source of it
// is kept once with the document it first came in, and claims order by
// their names as strings.
func oracleStatements(log []obs, extractor string, score func(support, sources int) float64) []rdf.Statement {
	type claim struct {
		entity, attr, value string
		support             int
		sources, docs       []string
	}
	var claims []*claim
	for _, o := range log {
		var c *claim
		for _, have := range claims {
			if have.entity == o.entity && have.attr == o.attr && have.value == o.value {
				c = have
			}
		}
		if c == nil {
			c = &claim{entity: o.entity, attr: o.attr, value: o.value}
			claims = append(claims, c)
		}
		c.support++
		seen := false
		for _, s := range c.sources {
			seen = seen || s == o.source
		}
		if !seen {
			c.sources = append(c.sources, o.source)
			c.docs = append(c.docs, o.doc)
		}
	}
	// Selection sort: the keys are distinct, so no tie needs breaking.
	for i := range claims {
		for j := i + 1; j < len(claims); j++ {
			a, b := claims[i], claims[j]
			if b.entity < a.entity || b.entity == a.entity && (b.attr < a.attr || b.attr == a.attr && b.value < a.value) {
				claims[i], claims[j] = b, a
			}
		}
	}
	var out []rdf.Statement
	for _, c := range claims {
		t := rdf.T(EntityIRI(c.entity), AttrIRI(c.attr), rdf.Literal(c.value))
		for k, src := range c.sources {
			out = append(out, rdf.S(t, rdf.Provenance{Source: src, Extractor: extractor, Document: c.docs[k]}, score(c.support, len(c.sources))))
		}
	}
	return out
}

// The fixtures' vocabularies are small, so claims repeat and shards share
// keys. "A b" and "AB" sort one way as strings and the other as IRIs, and
// "A_b" mints the IRI "A b" does.
var (
	oracleEntities = []string{"A b", "AB", "A_b", "E", "Ä"}
	oracleAttrs    = []string{"p q", "pQ", "a"}
	oracleValues   = []string{"v", "w", "v w"}
	oracleSources  = []string{"s1", "s2", "zeta", "alpha"}
)

// oracleObs spells one observation from four numbers; the document is the
// observation's place in its stream, so first-seen documents are told apart.
func oracleObs(e, a, v, s, at int) obs {
	return obs{
		oracleEntities[e%len(oracleEntities)], oracleAttrs[a%len(oracleAttrs)],
		oracleValues[v%len(oracleValues)], oracleSources[s%len(oracleSources)], fmt.Sprintf("d%d", at),
	}
}

// checkOracle adds in to one log, each of shards to a log of its own that
// is merged in, and late after the merges, and holds the counted log to the
// oracle over all of it in that order.
func checkOracle(t *testing.T, in []obs, shards [][]obs, late []obs) {
	t.Helper()
	e := addAll(NewEvidence(), in)
	all := append([]obs(nil), in...)
	for _, sh := range shards {
		e.Merge(addAll(NewEvidence(), sh))
		all = append(all, sh...)
	}
	addAll(e, late)
	all = append(all, late...)
	e.Count()
	got := e.AppendStatements(nil, "x", supportTimesSources)
	want := oracleStatements(all, "x", supportTimesSources)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d observations:\ngot  %q\nwant %q", len(all), render(got), render(want))
	}
	if e.Len() != len(got) {
		t.Fatalf("Len %d, appended %d", e.Len(), len(got))
	}
}

// TestEvidenceMatchesOracle holds seeded random streams to the oracle. Some
// are longer than a block, so a merged log's partly filled last block sits
// in the middle of the log and an add after the merge writes into it.
func TestEvidenceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	stream := func(n int) []obs {
		out := make([]obs, n)
		for i := range out {
			out[i] = oracleObs(r.Intn(8), r.Intn(8), r.Intn(8), r.Intn(8), r.Intn(1000))
		}
		return out
	}
	for i := 0; i < 300; i++ {
		size := 1 + r.Intn(12)
		if i%10 == 0 {
			size = 1 + r.Intn(700)
		}
		shards := make([][]obs, r.Intn(4))
		for k := range shards {
			shards[k] = stream(r.Intn(size + 1))
		}
		checkOracle(t, stream(r.Intn(size+1)), shards, stream(r.Intn(size+1)))
	}
}

// FuzzEvidenceMatchesOracle spells the streams from the fuzzer's bytes: the
// first two bytes cut the rest into the log's own observations, one merged
// shard's and those added after the merge, four bytes an observation.
func FuzzEvidenceMatchesOracle(f *testing.F) {
	f.Add([]byte{4, 8, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 3})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cut1, cut2 := int(data[0]), int(data[1])
		var log []obs
		for i := 2; i+4 <= len(data); i += 4 {
			log = append(log, oracleObs(int(data[i]), int(data[i+1]), int(data[i+2]), int(data[i+3]), i))
		}
		cut1 = min(cut1, len(log))
		cut2 = min(cut1+cut2, len(log))
		checkOracle(t, log[:cut1], [][]obs{log[cut1:cut2]}, log[cut2:])
	})
}
