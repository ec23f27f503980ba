package kbx

import (
	"context"
	"sort"
	"strings"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// referenceExtractStatements is ExtractStatements as it was: one KB a call,
// the slice grown from nil, the canonical name recomputed and both IRIs
// minted for every statement. It defines the statements and their order.
func referenceExtractStatements(crit *confidence.Criterion, src *kb.SourceKB) []rdf.Statement {
	source := strings.ToLower(src.Name)
	conf := confidence.MaxConfidence
	if crit != nil {
		conf = crit.Score(extract.ExtractorKB, 3, 1)
	}
	var out []rdf.Statement
	classes := make([]string, 0, len(src.Facts))
	for c := range src.Facts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		for _, fact := range src.Facts[class] {
			fieldValues := make(map[string][]string, len(fact.FieldValues))
			fieldNames := make([]string, 0, len(fact.FieldValues))
			for _, row := range fact.FieldValues {
				fieldValues[row.Attr] = row.Values
				fieldNames = append(fieldNames, row.Attr)
			}
			sort.Strings(fieldNames)
			for _, fn := range fieldNames {
				surface := fn
				if surface == "" {
					surface = fact.Property
				}
				canonical := kb.CanonicalAttributeName(surface, class)
				if canonical == "" {
					continue
				}
				for _, v := range fieldValues[fn] {
					out = append(out, extract.NewStatement(
						fact.Entity, canonical, v, source, extract.ExtractorKB, "", conf))
				}
			}
		}
	}
	return out
}

// TestKBStatementsMatchReference: the statements of two KBs in one call are
// the reference's for the first followed by the reference's for the second,
// element by element, as many as were counted — with and without a
// criterion, with corrupted values, and when a surface name has no
// canonical form (its facts emit nothing).
func TestKBStatementsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 6, 9} {
		w := kb.NewWorld(kb.WorldConfig{Seed: seed, EntitiesPerClass: 15, AttrsPerEntity: 14})
		db := kb.GenerateDBpedia(w, kb.KBGenConfig{Seed: seed, Coverage: 0.6, ErrorRate: 0.2})
		fb := kb.GenerateFreebase(w, kb.KBGenConfig{Seed: seed, Coverage: 0.8})
		// A property whose name is all separators canonicalises to "", and a
		// composite with one nameless and one such sub-field.
		fb.Facts["Film"] = append(fb.Facts["Film"],
			kb.Fact{Entity: "Nobody 1", Property: "__", FieldValues: []kb.AttrValues{{Attr: "", Values: []string{"x"}}}},
			kb.Fact{Entity: "Nobody 2", Property: "film_cut", FieldValues: []kb.AttrValues{{Attr: "", Values: []string{"a", "b"}}, {Attr: "-", Values: []string{"c"}}, {Attr: "run_time", Values: []string{"d"}}}},
		)
		for _, crit := range []*confidence.Criterion{nil, confidence.Default()} {
			want := append(referenceExtractStatements(crit, db), referenceExtractStatements(crit, fb)...)
			counted := ExtractStatements(context.Background(), crit, db, fb)
			got := counted.AppendStatements(nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d statements, want %d", seed, len(got), len(want))
			}
			if counted.Len() != len(got) {
				t.Errorf("seed %d: %d statements counted, %d appended", seed, counted.Len(), len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: statement %d is %v, want %v", seed, i, got[i], want[i])
				}
			}
			one := ExtractStatements(context.Background(), crit, fb).AppendStatements(nil)
			ref := referenceExtractStatements(crit, fb)
			if len(one) != len(ref) {
				t.Fatalf("seed %d: one KB gives %d statements, want %d", seed, len(one), len(ref))
			}
			for i := range ref {
				if one[i] != ref[i] {
					t.Fatalf("seed %d: one KB's statement %d is %v, want %v", seed, i, one[i], ref[i])
				}
			}
		}
	}
	if got := ExtractStatements(context.Background(), nil).AppendStatements(nil); len(got) != 0 {
		t.Errorf("no KB gives %d statements", len(got))
	}
}
