package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"akb/internal/extract"
	"akb/internal/rdf"
)

// This file holds Normalize to what its doc comment and the package's say
// it does: rename each attribute to its canonical name, then fold each
// misspelled value of an item into its best-supported variant in reach.

// synonyms is detectSynonyms' map of variants to canonical names.
func synonyms(stmts []rdf.Statement) map[string]string {
	syn, _, _ := detectSynonyms(stmts, extract.Names{})
	return syn
}

// foldTarget is the value a value of an item folds into, given the item's
// values and the statements supporting each: a value that is not mostly
// digits folds into the best-supported value, ties to the smaller, among
// those within misspellMaxDistance edits of it and misspellSupportRatio
// times as well supported — unless that value is empty.
func foldTarget(low string, support map[string]int) (string, bool) {
	if mostlyDigits(low) {
		return "", false
	}
	best, found := "", false
	for v, n := range support {
		if v == low || float64(n) < float64(support[low])*misspellSupportRatio ||
			!extract.WithinDistance(low, v, misspellMaxDistance) {
			continue
		}
		if !found || n > support[best] || n == support[best] && v < best {
			best, found = v, true
		}
	}
	return best, found && best != ""
}

// checkNormalize holds Normalize(stmts) to its rules and returns its report:
// the result is stmts rewritten in place; its synonyms are the all-pairs
// oracle's; each statement is renamed to its attribute's canonical name and
// then, within its (entity, renamed attribute) item, its value is folded by
// foldTarget, every other field as it was; CorrectedValues counts the folded
// statements; and the sub-attributes are the oracle's over the attribute
// names the result carries.
func checkNormalize(t testing.TB, stmts []rdf.Statement) Report {
	t.Helper()
	renamed := slices.Clone(stmts) // renamed below
	out, rep := Normalize(stmts)
	if len(out) != len(renamed) || len(out) > 0 && &out[0] != &stmts[0] {
		t.Fatal("the result is not the input rewritten")
	}
	syn := refDetectSynonyms(renamed)
	if !reflect.DeepEqual(rep.Synonyms, syn) {
		t.Fatalf("synonyms %v, want %v", rep.Synonyms, syn)
	}
	type item struct{ subject, predicate rdf.Term }
	support := map[item]map[string]int{}
	for i, s := range renamed {
		if canon, ok := syn[extract.AttrFromIRI(s.Predicate)]; ok {
			renamed[i].Predicate = extract.AttrIRI(canon)
		}
		key := item{s.Subject, renamed[i].Predicate}
		if support[key] == nil {
			support[key] = map[string]int{}
		}
		support[key][s.Object.Value]++
	}
	folded := 0
	for i, want := range renamed {
		if to, ok := foldTarget(want.Object.Value, support[item{want.Subject, want.Predicate}]); ok {
			want.Object = rdf.Literal(to)
			folded++
		}
		if out[i] != want {
			t.Fatalf("statement %d is %v, want %v", i, out[i].Triple, want.Triple)
		}
	}
	if rep.CorrectedValues != folded {
		t.Fatalf("%d corrected values, want %d", rep.CorrectedValues, folded)
	}
	var attrs []string
	for _, s := range out {
		attrs = append(attrs, extract.AttrFromIRI(s.Predicate))
	}
	slices.Sort(attrs)
	if want := refDetectSubAttributes(slices.Compact(attrs)); !reflect.DeepEqual(rep.SubAttributes, want) {
		t.Fatalf("sub-attributes %v, want %v", rep.SubAttributes, want)
	}
	return rep
}

// genMisspelt builds items whose values are typos of one another at mixed
// supports: mostly-digit values a digit apart, support ties between two
// targets, counts on either side of and exactly at misspellSupportRatio,
// multi-byte and empty values, and one spelling as a literal and an IRI.
func genMisspelt(r *rand.Rand) []rdf.Statement {
	values := []string{"Michael Curtiz", "Michael Curtis", "Michael Curtiss", "Micheal Curtiz", "1942", "1943", "19a2",
		"Zürich", "Zurich", "Zürick", "", "ab", "abc", "Woody Allen"}
	var stmts []rdf.Statement
	for e, n := 0, 1+r.Intn(4); e < n; e++ {
		entity := fmt.Sprintf("Entity %d", e)
		for _, attr := range []string{"director", "release date"}[:1+r.Intn(2)] {
			for k, m := 0, 1+r.Intn(5); k < m; k++ {
				v := values[r.Intn(len(values))]
				for c, support := 0, 1+r.Intn(6); c < support; c++ {
					s := st(entity, attr, v, fmt.Sprintf("s%d", r.Intn(4)))
					if r.Intn(8) == 0 {
						s.Object = rdf.IRI(v)
					}
					stmts = append(stmts, s)
				}
			}
		}
	}
	r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	return stmts
}

// TestCorrectMisspellingsMatchesReference: on items of typos at mixed
// supports, every fold Normalize makes, and every one it leaves, follows
// the folding rule.
func TestCorrectMisspellingsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	folds := 0
	for round := 0; round < 300; round++ {
		folds += checkNormalize(t, genMisspelt(r)).CorrectedValues
	}
	if folds == 0 {
		t.Fatal("the generator never produced a fold")
	}
}

// TestNormalizeMatchesReference: on corpora of shadowing attribute names
// and typos, Normalize renames to the oracle's canonical names and folds by
// the renamed items.
func TestNormalizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	merged := 0
	for round := 0; round < 300; round++ {
		merged += len(checkNormalize(t, append(genStatements(r, 2+r.Intn(10), 1+r.Intn(8)), genMisspelt(r)...)).Synonyms)
	}
	if merged == 0 {
		t.Fatal("the generator never produced a synonym")
	}
}

func TestDetectSynonymsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 300; round++ {
		stmts := genStatements(r, 2+r.Intn(14), 1+r.Intn(12))
		got, want := synonyms(stmts), refDetectSynonyms(stmts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\n got  %v\n want %v", round, got, want)
		}
	}
	if got := synonyms(nil); len(got) != 0 {
		t.Errorf("no statements: synonyms = %v", got)
	}
}

func TestDetectSubAttributesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for round := 0; round < 500; round++ {
		attrs := make([]string, r.Intn(25))
		for i := range attrs {
			attrs[i] = genAttrName(r) // duplicates and repeated tokens included
		}
		got, want := DetectSubAttributes(attrs), refDetectSubAttributes(attrs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d attrs %q:\n got  %v\n want %v", round, attrs, got, want)
		}
	}
}
