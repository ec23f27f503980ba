package kb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalAttributeName(t *testing.T) {
	cases := []struct {
		raw, class, want string
	}{
		{"birthPlace", "", "birth place"},
		{"/film/film/directed_by", "Film", "directed by"},
		{"/film/film/birth_place", "Film", "birth place"},
		{"release_date", "", "release date"},
		{"boxOffice", "", "box office"},
		{"film_running_time", "Film", "running time"},
		{"simple", "", "simple"},
		{"Check-In-Time", "", "check in time"},
		{"totalArea", "Country", "total area"},
	}
	for _, c := range cases {
		if got := CanonicalAttributeName(c.raw, c.class); got != c.want {
			t.Errorf("CanonicalAttributeName(%q, %q) = %q, want %q", c.raw, c.class, got, c.want)
		}
	}
}

func TestStyleNamesRoundTrip(t *testing.T) {
	canonicals := []string{"birth place", "total adjusted budget", "gdp", "running time"}
	for _, c := range canonicals {
		db := DBpediaStyleName(c)
		if got := CanonicalAttributeName(db, ""); got != c {
			t.Errorf("DBpedia round trip %q -> %q -> %q", c, db, got)
		}
		fb := FreebaseStyleName(c, "Film")
		if got := CanonicalAttributeName(fb, "Film"); got != c {
			t.Errorf("Freebase round trip %q -> %q -> %q", c, fb, got)
		}
	}
}

func TestStyleRoundTripProperty(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "rate", "count"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
		}
		c := strings.Join(parts, " ")
		return CanonicalAttributeName(DBpediaStyleName(c), "") == c &&
			CanonicalAttributeName(FreebaseStyleName(c, "Book"), "Book") == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAttributeUniverseSizesAndUniqueness(t *testing.T) {
	for _, spec := range FiveClasses() {
		attrs := AttributeUniverse(spec.Name, spec.Combined)
		if len(attrs) != spec.Combined {
			t.Errorf("%s: universe size %d, want %d", spec.Name, len(attrs), spec.Combined)
		}
		seen := map[string]bool{}
		for _, a := range attrs {
			if seen[a.Canonical] {
				t.Errorf("%s: duplicate attribute %q", spec.Name, a.Canonical)
			}
			seen[a.Canonical] = true
			if a.Canonical == "" {
				t.Errorf("%s: empty attribute name", spec.Name)
			}
		}
	}
}

func TestAttributeUniverseDeterministic(t *testing.T) {
	a := AttributeUniverse("Film", 92)
	b := AttributeUniverse("Film", 92)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("universe not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFiveClassesSpecsMatchPaper(t *testing.T) {
	// Table 2 of the paper, exactly.
	want := map[string][5]int{
		"Book":       {21, 48, 5, 19, 60},
		"Film":       {53, 53, 54, 54, 92},
		"Country":    {191, 360, 22, 150, 489},
		"University": {21, 484, 9, 57, 518},
		"Hotel":      {18, 216, 7, 56, 255},
	}
	for _, s := range FiveClasses() {
		w := want[s.Name]
		got := [5]int{s.DBpediaRaw, s.DBpediaExpanded, s.FreebaseRaw, s.FreebaseExpanded, s.Combined}
		if got != w {
			t.Errorf("%s spec = %v, want %v", s.Name, got, w)
		}
		if s.Overlap() <= 0 {
			t.Errorf("%s overlap = %d, want > 0", s.Name, s.Overlap())
		}
	}
}

func TestNewWorldDeterministic(t *testing.T) {
	w1 := NewWorld(WorldConfig{Seed: 7, EntitiesPerClass: 10, AttrsPerEntity: 12})
	w2 := NewWorld(WorldConfig{Seed: 7, EntitiesPerClass: 10, AttrsPerEntity: 12})
	for _, cls := range w1.Ontology.ClassNames() {
		n1, n2 := w1.EntityNames(cls), w2.EntityNames(cls)
		if len(n1) != len(n2) {
			t.Fatalf("%s: entity counts differ", cls)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("%s: entity %d differs: %q vs %q", cls, i, n1[i], n2[i])
			}
		}
	}
}

func TestWorldStructure(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	if w.Ontology.Len() != 5 {
		t.Fatalf("ontology has %d classes, want 5", w.Ontology.Len())
	}
	for _, cls := range w.Ontology.ClassNames() {
		es := w.EntitiesOf(cls)
		if len(es) != w.Config.EntitiesPerClass {
			t.Errorf("%s: %d entities, want %d", cls, len(es), w.Config.EntitiesPerClass)
		}
		for _, e := range es {
			if len(e.Values) == 0 {
				t.Errorf("%s/%s has no values", cls, e.Name)
			}
			if len(e.Values) > w.Config.AttrsPerEntity {
				t.Errorf("%s/%s has %d attrs, cap %d", cls, e.Name, len(e.Values), w.Config.AttrsPerEntity)
			}
			if got, ok := w.Entity(e.Name); !ok || got != e {
				t.Errorf("entity lookup failed for %q", e.Name)
			}
		}
	}
}

func TestWorldValueKinds(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	cls := w.Ontology.Class("Film")
	for _, e := range w.EntitiesOf("Film") {
		for _, row := range e.Values {
			attr, vals := row.Attr, row.Values
			a, ok := cls.Attribute(attr)
			if !ok {
				t.Fatalf("entity value for unknown attribute %q", attr)
			}
			if a.Functional && len(vals) != 1 {
				t.Errorf("functional %q has %d values", attr, len(vals))
			}
			if a.Hierarchical {
				for _, v := range vals {
					if !w.Hier.Known(v) {
						t.Errorf("hierarchical value %q not in hierarchy", v)
					}
				}
			}
		}
	}
}

func TestWorldIsTrueWithHierarchy(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	// Find an entity with a hierarchical place value.
	for _, e := range w.EntitiesOf("Film") {
		for _, row := range e.Values {
			attr, vals := row.Attr, row.Values
			a, _ := w.Ontology.Class("Film").Attribute(attr)
			if !a.Hierarchical || len(vals) == 0 {
				continue
			}
			city := vals[0]
			if !w.IsTrue(e, attr, city) {
				t.Fatalf("exact value not true")
			}
			for _, anc := range w.Hier.Ancestors(city) {
				if !w.IsTrue(e, attr, anc) {
					t.Fatalf("generalisation %q of %q not accepted as true", anc, city)
				}
			}
			if w.IsTrue(e, attr, "definitely wrong") {
				t.Fatal("wrong value accepted")
			}
			return
		}
	}
	t.Skip("no hierarchical value found (unexpected)")
}

func TestGenerateSourceKBsMatchTable2RawCounts(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 3, EntitiesPerClass: 20, AttrsPerEntity: 16})
	db := GenerateDBpedia(w, KBGenConfig{Seed: 3, Coverage: 0.7})
	fb := GenerateFreebase(w, KBGenConfig{Seed: 3, Coverage: 0.9})
	for _, spec := range FiveClasses() {
		if got := db.RawPropertyCount(spec.Name); got != spec.DBpediaRaw {
			t.Errorf("DBpedia %s raw = %d, want %d", spec.Name, got, spec.DBpediaRaw)
		}
		if got := fb.RawPropertyCount(spec.Name); got != spec.FreebaseRaw {
			t.Errorf("Freebase %s raw = %d, want %d", spec.Name, got, spec.FreebaseRaw)
		}
	}
}

func TestSourceKBExpandedCoverage(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 3, EntitiesPerClass: 20, AttrsPerEntity: 16})
	db := GenerateDBpedia(w, KBGenConfig{Seed: 3})
	fb := GenerateFreebase(w, KBGenConfig{Seed: 3})
	for _, spec := range FiveClasses() {
		dbSet := canonicalSet(db.Properties[spec.Name])
		fbSet := canonicalSet(fb.Properties[spec.Name])
		if len(dbSet) != spec.DBpediaExpanded {
			t.Errorf("DBpedia %s expanded = %d, want %d", spec.Name, len(dbSet), spec.DBpediaExpanded)
		}
		if len(fbSet) != spec.FreebaseExpanded {
			t.Errorf("Freebase %s expanded = %d, want %d", spec.Name, len(fbSet), spec.FreebaseExpanded)
		}
		union := map[string]bool{}
		overlap := 0
		for c := range dbSet {
			union[c] = true
		}
		for c := range fbSet {
			if union[c] {
				overlap++
			}
			union[c] = true
		}
		if len(union) != spec.Combined {
			t.Errorf("%s union = %d, want %d", spec.Name, len(union), spec.Combined)
		}
		if overlap != spec.Overlap() {
			t.Errorf("%s overlap = %d, want %d", spec.Name, overlap, spec.Overlap())
		}
	}
}

func canonicalSet(props []Property) map[string]bool {
	out := map[string]bool{}
	for _, p := range props {
		for _, f := range p.Fields {
			out[f.Canonical] = true
		}
	}
	return out
}

func TestSourceKBSurfaceNamesRecoverCanonicals(t *testing.T) {
	// The extractor must be able to recover canonical names from surface
	// names alone — verify the generator keeps that invariant.
	w := NewWorld(WorldConfig{Seed: 3, EntitiesPerClass: 5, AttrsPerEntity: 10})
	for _, src := range []*SourceKB{
		GenerateDBpedia(w, KBGenConfig{Seed: 3}),
		GenerateFreebase(w, KBGenConfig{Seed: 3}),
	} {
		for cls, props := range src.Properties {
			for _, p := range props {
				for _, f := range p.Fields {
					surface := f.Name
					if surface == "" {
						surface = p.Name
					}
					if got := CanonicalAttributeName(surface, cls); got != f.Canonical {
						t.Errorf("%s/%s: surface %q -> %q, want %q", src.Name, cls, surface, got, f.Canonical)
					}
				}
			}
		}
	}
}

func TestSourceKBFacts(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 11, EntitiesPerClass: 30, AttrsPerEntity: 20})
	db := GenerateDBpedia(w, KBGenConfig{Seed: 11, Coverage: 0.5})
	for _, cls := range w.Ontology.ClassNames() {
		covered := db.CoveredEntities[cls]
		if len(covered) == 0 {
			t.Errorf("%s: no covered entities", cls)
		}
		wantCover := int(float64(w.Config.EntitiesPerClass)*0.5 + 0.5)
		if len(covered) != wantCover {
			t.Errorf("%s: covered %d, want %d", cls, len(covered), wantCover)
		}
		if len(db.Facts[cls]) == 0 {
			t.Errorf("%s: no facts", cls)
		}
		coveredSet := map[string]bool{}
		for _, n := range covered {
			coveredSet[n] = true
		}
		for _, f := range db.Facts[cls] {
			if !coveredSet[f.Entity] {
				t.Errorf("%s: fact for uncovered entity %q", cls, f.Entity)
			}
			if len(f.FieldValues) == 0 {
				t.Errorf("%s: empty fact", cls)
			}
		}
	}
}

func TestGenerateStatsKBsMatchTable1(t *testing.T) {
	kbs := GenerateStatsKBs(1)
	want := map[string][2]int{
		"YAGO":     {10000, 100},
		"DBpedia":  {4000, 6000},
		"Freebase": {25000, 4000},
		"NELL":     {300, 500},
	}
	if len(kbs) != 4 {
		t.Fatalf("got %d stats KBs, want 4", len(kbs))
	}
	for _, s := range kbs {
		p := s.Profile()
		w := want[p.Name]
		if p.Entities != w[0] || p.Attributes != w[1] {
			t.Errorf("%s profile = %d/%d, want %d/%d", p.Name, p.Entities, p.Attributes, w[0], w[1])
		}
		seen := map[string]bool{}
		for _, a := range s.Attributes {
			if seen[a] {
				t.Errorf("%s: duplicate attribute %q", p.Name, a)
			}
			seen[a] = true
		}
	}
}

func TestEntityNamesUnique(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 5, EntitiesPerClass: 100, AttrsPerEntity: 10})
	seen := map[string]bool{}
	for _, cls := range w.Ontology.ClassNames() {
		for _, n := range w.EntityNames(cls) {
			if seen[n] {
				t.Errorf("duplicate entity name %q", n)
			}
			seen[n] = true
		}
	}
}

func TestValueKindString(t *testing.T) {
	for _, k := range []ValueKind{KindText, KindName, KindPlace, KindNumber, KindDate} {
		if strings.Contains(k.String(), "ValueKind") {
			t.Errorf("kind %d missing name", k)
		}
	}
}

func TestClassAttributeLookup(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	cls := w.Ontology.Class("Book")
	if cls == nil {
		t.Fatal("Book class missing")
	}
	if a, ok := cls.Attribute("author"); !ok || a.Canonical != "author" {
		t.Error("author attribute lookup failed")
	}
	if _, ok := cls.Attribute("no such attr"); ok {
		t.Error("bogus attribute found")
	}
	if len(cls.AttributeNames()) != len(cls.Attributes) {
		t.Error("AttributeNames length mismatch")
	}
}

// referenceCanonicalAttributeName is CanonicalAttributeName as it was: a
// Builder per word, a ToLower per flush, a slice of words and a Join.
func referenceCanonicalAttributeName(raw, class string) string {
	raw = strings.TrimPrefix(raw, "/")
	if i := strings.LastIndexByte(raw, '/'); i >= 0 {
		raw = raw[i+1:]
	}
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range raw {
		switch {
		case r == '_' || r == '-' || r == ' ' || r == '.':
			flush()
		case r >= 'A' && r <= 'Z':
			flush()
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	if class != "" {
		cls := strings.ToLower(class)
		for len(words) > 0 && words[0] == cls {
			words = words[1:]
		}
	}
	return strings.Join(words, " ")
}

// TestCanonicalAttributeNameMatchesReference: built in one buffer, the name
// is the word-by-word form's, byte for byte — on every surface name of the
// generated KBs and on spellings made of the characters the rule looks at,
// runes that lower-case to another length, and bytes that are no UTF-8.
func TestCanonicalAttributeNameMatchesReference(t *testing.T) {
	check := func(raw, class string) {
		t.Helper()
		if got, want := CanonicalAttributeName(raw, class), referenceCanonicalAttributeName(raw, class); got != want {
			t.Fatalf("CanonicalAttributeName(%q, %q) = %q, want %q", raw, class, got, want)
		}
	}
	w := NewWorld(WorldConfig{Seed: 3, EntitiesPerClass: 4, AttrsPerEntity: 6})
	for _, src := range []*SourceKB{GenerateDBpedia(w, KBGenConfig{Seed: 3, Coverage: 1}), GenerateFreebase(w, KBGenConfig{Seed: 3, Coverage: 1})} {
		for class, props := range src.Properties {
			for _, p := range props {
				check(p.Name, class)
				check(p.Name, "")
				for _, f := range p.Fields {
					check(f.Name, class)
				}
			}
		}
	}
	pieces := []string{"film", "Film", "FILM", "hotel chain", "a", "B", "_", "-", " ", ".", "/", "İ", "Ⱥ", "é", "É", "\xff", "9", "filmx", "x"}
	classes := []string{"", "Film", "film", "İ", "Hotel Chain", "X", "É"}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 20000; i++ {
		var raw string
		for n := r.Intn(7); n > 0; n-- {
			raw += pieces[r.Intn(len(pieces))]
		}
		check(raw, classes[r.Intn(len(classes))])
	}
}
