package extract

import (
	"fmt"
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
			got := merged.Statements("x", supportTimesSources)
			if fmt.Sprintf("%q", render(got)) != fmt.Sprintf("%q", tc.want) {
				t.Errorf("got  %q\nwant %q", render(got), tc.want)
			}
			one := addAll(addAll(addAll(NewEvidence(), tc.in), tc.shard), tc.late).Statements("x", supportTimesSources)
			if !reflect.DeepEqual(got, one) {
				t.Errorf("merged %q\none    %q", render(got), render(one))
			}
			if again := merged.Statements("x", supportTimesSources); !reflect.DeepEqual(got, again) {
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
