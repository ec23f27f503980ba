package align

import (
	"slices"
	"testing"

	"akb/internal/extract"
	"akb/internal/rdf"
)

func st(entity, attr, value, source string) rdf.Statement {
	return rdf.S(rdf.T(extract.EntityIRI(entity), extract.AttrIRI(attr), rdf.Literal(value)),
		rdf.Provenance{Source: source, Extractor: "x"}, 0.8)
}

func TestTokenSignature(t *testing.T) {
	cases := map[string]string{
		"release date":     "date release",
		"date of release":  "date release",
		"the release date": "date release",
		"director":         "director",
	}
	for in, want := range cases {
		if got := tokenSignature(in); got != want {
			t.Errorf("tokenSignature(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDetectSynonymsBySignature(t *testing.T) {
	stmts := []rdf.Statement{
		st("e1", "release date", "1942", "s1"),
		st("e2", "release date", "1950", "s1"),
		st("e1", "date of release", "1942", "s2"),
		st("e3", "director", "Jane", "s1"),
	}
	syn := synonyms(stmts)
	if syn["date of release"] != "release date" {
		t.Errorf("synonyms = %v, want date of release -> release date", syn)
	}
	if _, ok := syn["director"]; ok {
		t.Error("director wrongly merged")
	}
}

func TestDetectSynonymsByValueAgreement(t *testing.T) {
	// "runtime" and "length" share no tokens but agree on values across
	// enough entities.
	var stmts []rdf.Statement
	for i, v := range []string{"102", "95", "120", "88"} {
		e := string(rune('a' + i))
		stmts = append(stmts,
			st(e, "runtime", v, "s1"),
			st(e, "length", v, "s2"),
		)
	}
	stmts = append(stmts, st("a", "runtime", "102", "s3")) // runtime better supported
	syn := synonyms(stmts)
	if syn["length"] != "runtime" {
		t.Errorf("synonyms = %v, want length -> runtime", syn)
	}
}

func TestDetectSynonymsRespectsDisagreement(t *testing.T) {
	// "runtime" and "length" share no token, so only value agreement on
	// at least minSharedEntities entities, at a rate of at least
	// minValueAgreement, merges them.
	for _, c := range []struct {
		shared, agree int
		want          bool
	}{
		{4, 0, false},
		{minSharedEntities - 1, minSharedEntities - 1, false},
		{minSharedEntities, minSharedEntities, true},
		{5, 3, false}, // 0.6 of the shared entities agree
		{5, 4, true},  // 0.8
	} {
		var stmts []rdf.Statement
		for i := 0; i < c.shared; i++ {
			e, v := string(rune('a'+i)), string(rune('0'+i))
			other := v
			if i >= c.agree {
				other += "0"
			}
			stmts = append(stmts, st(e, "runtime", v, "s1"), st(e, "length", other, "s2"))
		}
		if got := len(synonyms(stmts)) == 1; got != c.want {
			t.Errorf("%d of %d shared entities agree: merged = %v, want %v", c.agree, c.shared, got, c.want)
		}
	}
}

func TestDetectSubAttributes(t *testing.T) {
	attrs := []string{"population", "total population", "total urban population", "area", "director"}
	sub := DetectSubAttributes(attrs)
	if sub["total population"] != "population" {
		t.Errorf("sub = %v", sub)
	}
	if sub["total urban population"] != "population" {
		t.Errorf("deep sub should map to most general parent: %v", sub)
	}
	if _, ok := sub["population"]; ok {
		t.Error("root attribute marked as sub-attribute")
	}
	if _, ok := sub["director"]; ok {
		t.Error("unrelated attribute marked as sub-attribute")
	}
}

func TestCorrectMisspellings(t *testing.T) {
	stmts := []rdf.Statement{
		st("e", "director", "Michael Curtiz", "s1"),
		st("e", "director", "Michael Curtiz", "s2"),
		st("e", "director", "Michael Curtiz", "s3"),
		st("e", "director", "Michael Curtis", "s4"), // typo, support 1
		st("e", "director", "Woody Allen", "s5"),    // distinct, not a typo
	}
	out, rep := Normalize(stmts)
	if folded := rep.CorrectedValues; folded != 1 {
		t.Fatalf("folded = %d, want 1", folded)
	}
	count := 0
	for _, s := range out {
		switch s.Object.Value {
		case "Michael Curtiz":
			count++
		case "Michael Curtis":
			t.Error("typo survived")
		}
	}
	if count != 4 {
		t.Errorf("corrected support = %d, want 4", count)
	}
}

func TestCorrectMisspellingsRequiresSupportRatio(t *testing.T) {
	// A value folds into a variant at least misspellSupportRatio times
	// better supported, and not into one just short of that.
	for _, c := range []struct {
		high, low int
		want      int
	}{
		{1, 1, 0},
		{3, 2, 0},
		{misspellSupportRatio, 1, 1},
		{2 * misspellSupportRatio, 2, 2},
	} {
		var stmts []rdf.Statement
		for i := 0; i < c.high; i++ {
			stmts = append(stmts, st("e", "director", "Jane Doe", "s"))
		}
		for i := 0; i < c.low; i++ {
			stmts = append(stmts, st("e", "director", "Jane Do", "s"))
		}
		if _, rep := Normalize(stmts); rep.CorrectedValues != c.want {
			t.Errorf("support %d vs %d: folded %d, want %d", c.high, c.low, rep.CorrectedValues, c.want)
		}
	}
}

func TestCorrectMisspellingsMaxDistance(t *testing.T) {
	// "Michael Curtiz" is two edits from "Michael Kurtis" and three from
	// "Mikhael Kurtis": only the first is within misspellMaxDistance.
	for typo, want := range map[string]int{"Michael Kurtis": 1, "Mikhael Kurtis": 0} {
		if extract.WithinDistance(typo, "Michael Curtiz", misspellMaxDistance) != (want == 1) {
			t.Fatalf("%q is not where the case needs it; it needs another spelling", typo)
		}
		stmts := []rdf.Statement{
			st("e", "director", "Michael Curtiz", "s1"),
			st("e", "director", "Michael Curtiz", "s2"),
			st("e", "director", typo, "s3"),
		}
		if _, rep := Normalize(stmts); rep.CorrectedValues != want {
			t.Errorf("%q: folded %d, want %d", typo, rep.CorrectedValues, want)
		}
	}
}

func TestNormalizeEndToEnd(t *testing.T) {
	stmts := []rdf.Statement{
		st("e1", "release date", "1942", "s1"),
		st("e1", "release date", "1942", "s2"),
		st("e1", "date of release", "1942", "s3"),
		st("e1", "release date", "1943", "s4"), // close but numeric variant
		st("e2", "population", "100", "s1"),
		st("e2", "total population", "100", "s2"),
	}
	out, rep := Normalize(stmts)
	if len(out) != len(stmts) {
		t.Fatalf("statement count changed: %d", len(out))
	}
	if rep.Synonyms["date of release"] != "release date" {
		t.Errorf("synonyms = %v", rep.Synonyms)
	}
	// After merging, no statement keeps the variant predicate.
	for _, s := range out {
		if extract.AttrFromIRI(s.Predicate) == "date of release" {
			t.Error("variant predicate survived normalisation")
		}
	}
	if rep.SubAttributes["total population"] != "population" {
		t.Errorf("sub-attributes = %v", rep.SubAttributes)
	}
	// Numeric near-misses are conflicts, not typos.
	for _, s := range out {
		if s.Object.Value == "1943" {
			return
		}
	}
	t.Error("numeric value 1943 was wrongly folded as a misspelling")
}

// TestNormalizeRewritesInPlace: the result is the input slice, rewritten;
// no copy of the statements is made. The typo folds only because its item
// is counted under the merged predicate (two votes against one), which is
// not yet written when the folds are planned.
func TestNormalizeRewritesInPlace(t *testing.T) {
	stmts := []rdf.Statement{
		st("e1", "release date", "Casablanca", "s1"),
		st("e1", "date of release", "Casablanca", "s2"),
		st("e1", "release date", "Casablanka", "s3"),
	}
	out, rep := Normalize(stmts)
	if len(out) != len(stmts) || &out[0] != &stmts[0] {
		t.Fatal("the result does not alias the input")
	}
	if len(rep.Synonyms) != 1 || rep.CorrectedValues != 1 {
		t.Fatalf("report = %+v, want one synonym and one correction", rep)
	}
	for i, s := range stmts {
		if extract.AttrFromIRI(s.Predicate) != "release date" || s.Object.Value != "Casablanca" {
			t.Errorf("input statement %d not rewritten: %v", i, s.Triple)
		}
	}
}

func TestMostlyDigits(t *testing.T) {
	cases := map[string]bool{
		"1942": true, "abc": false, "a1": false, "12a": true, "": false,
	}
	for in, want := range cases {
		if got := mostlyDigits(in); got != want {
			t.Errorf("mostlyDigits(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestEditDistance: the bounded distance misspellings are folded by admits
// each pair at its distance and not one below.
func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "ab", 2},
		{"kitten", "sitting", 3},
		{"Curtiz", "Curtis", 1},
		{"same", "same", 0},
		{"Zürich", "Zurich", 1},
	}
	for _, c := range cases {
		if !extract.WithinDistance(c.a, c.b, c.want) || extract.WithinDistance(c.a, c.b, c.want-1) {
			t.Errorf("distance(%q, %q) is not %d", c.a, c.b, c.want)
		}
	}
}

// Property: Normalize is idempotent — a second pass finds nothing more to
// merge or correct.
func TestNormalizeIdempotent(t *testing.T) {
	stmts := []rdf.Statement{
		st("e1", "release date", "1942", "s1"),
		st("e1", "release date", "1942", "s2"),
		st("e1", "date of release", "1942", "s3"),
		st("e2", "director", "Michael Curtiz", "s1"),
		st("e2", "director", "Michael Curtiz", "s2"),
		st("e2", "director", "Michael Curtis", "s3"),
	}
	once, rep1 := Normalize(stmts)
	// Normalize rewrites in place: the second pass gets a copy, so once
	// still holds the first pass's output.
	twice, rep2 := Normalize(slices.Clone(once))
	if len(rep2.Synonyms) != 0 {
		t.Errorf("second pass found synonyms: %v", rep2.Synonyms)
	}
	if rep2.CorrectedValues != 0 {
		t.Errorf("second pass corrected %d values", rep2.CorrectedValues)
	}
	if len(once) != len(twice) {
		t.Fatal("statement count changed")
	}
	for i := range once {
		if once[i].Triple != twice[i].Triple {
			t.Errorf("statement %d changed on second pass", i)
		}
	}
	if len(rep1.Synonyms) == 0 || rep1.CorrectedValues == 0 {
		t.Error("first pass did nothing")
	}
}
