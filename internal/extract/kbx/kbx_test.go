package kbx

import (
	"context"
	"slices"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
)

func setup() (*kb.World, *kb.SourceKB, *kb.SourceKB) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 6, EntitiesPerClass: 15, AttrsPerEntity: 14})
	db := kb.GenerateDBpedia(w, kb.KBGenConfig{Seed: 6, Coverage: 0.6})
	fb := kb.GenerateFreebase(w, kb.KBGenConfig{Seed: 6, Coverage: 0.8})
	return w, db, fb
}

func TestExtractAttributesReproducesTable2(t *testing.T) {
	_, db, fb := setup()
	res := ExtractAttributes(context.Background(), confidence.Default(), db, fb)
	rows := res.Table2()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	// The paper's Table 2, exactly.
	want := map[string]Table2Row{
		"Book":       {Class: "Book", DBpediaRaw: 21, DBpediaExtracted: 48, FreebaseRaw: 5, FreebaseExtract: 19, Combined: 60},
		"Film":       {Class: "Film", DBpediaRaw: 53, DBpediaExtracted: 53, FreebaseRaw: 54, FreebaseExtract: 54, Combined: 92},
		"Country":    {Class: "Country", DBpediaRaw: 191, DBpediaExtracted: 360, FreebaseRaw: 22, FreebaseExtract: 150, Combined: 489},
		"University": {Class: "University", DBpediaRaw: 21, DBpediaExtracted: 484, FreebaseRaw: 9, FreebaseExtract: 57, Combined: 518},
		"Hotel":      {Class: "Hotel", DBpediaRaw: 18, DBpediaExtracted: 216, FreebaseRaw: 7, FreebaseExtract: 56, Combined: 255},
	}
	for _, row := range rows {
		if row != want[row.Class] {
			t.Errorf("%s row = %+v, want %+v", row.Class, row, want[row.Class])
		}
	}
	// Paper's class order.
	order := []string{"Book", "Film", "Country", "University", "Hotel"}
	for i, c := range order {
		if rows[i].Class != c {
			t.Errorf("row %d class = %s, want %s", i, rows[i].Class, c)
		}
	}
}

func TestExtractAttributesShapeInvariants(t *testing.T) {
	_, db, fb := setup()
	res := ExtractAttributes(context.Background(), nil, db, fb)
	for _, cls := range res.Classes() {
		cr := res.PerClass[cls]
		dbe := cr.Expanded["DBpedia"].Len()
		fbe := cr.Expanded["Freebase"].Len()
		// Extraction can only grow a KB's attribute set.
		if dbe < cr.Raw["DBpedia"] {
			t.Errorf("%s: DBpedia expanded %d < raw %d", cls, dbe, cr.Raw["DBpedia"])
		}
		if fbe < cr.Raw["Freebase"] {
			t.Errorf("%s: Freebase expanded %d < raw %d", cls, fbe, cr.Raw["Freebase"])
		}
		// Union bounds.
		maxSide := dbe
		if fbe > maxSide {
			maxSide = fbe
		}
		if cr.Combined.Len() < maxSide || cr.Combined.Len() > dbe+fbe {
			t.Errorf("%s: combined %d outside [%d, %d]", cls, cr.Combined.Len(), maxSide, dbe+fbe)
		}
	}
}

func TestExtractAttributesConfidence(t *testing.T) {
	_, db, fb := setup()
	res := ExtractAttributes(context.Background(), confidence.Default(), db, fb)
	cr := res.PerClass["Film"]
	overlapSeen := false
	for name, ev := range cr.Combined {
		if ev.Confidence < confidence.MinConfidence || ev.Confidence > confidence.MaxConfidence {
			t.Errorf("%s confidence %g out of range", name, ev.Confidence)
		}
		if len(ev.Sources) == 2 {
			overlapSeen = true
			// Two-KB attributes must not score below a single-KB attribute
			// with the same support.
			for n2, e2 := range cr.Combined {
				if len(e2.Sources) == 1 && e2.Support == ev.Support && e2.Confidence > ev.Confidence {
					t.Errorf("single-source %s outscores double-source %s", n2, name)
				}
			}
		}
	}
	if !overlapSeen {
		t.Error("no overlapping attribute found in Film (spec overlap is 15)")
	}
}

func TestSeedSet(t *testing.T) {
	_, db, fb := setup()
	res := ExtractAttributes(context.Background(), nil, db, fb)
	seeds := res.SeedSet("Book")
	if seeds.Len() != 60 {
		t.Fatalf("Book seed set = %d, want 60", seeds.Len())
	}
	if res.SeedSet("NoSuchClass").Len() != 0 {
		t.Error("unknown class seed set should be empty")
	}
	if !seeds.Has("author") {
		t.Error("curated attribute 'author' missing from seeds")
	}
}

func TestExtractStatements(t *testing.T) {
	w, db, _ := setup()
	stmts := ExtractStatements(context.Background(), confidence.Default(), db).AppendStatements(nil)
	if len(stmts) == 0 {
		t.Fatal("no statements extracted")
	}
	correct, total := 0, 0
	for _, s := range stmts {
		if err := s.Valid(); err != nil {
			t.Fatalf("invalid statement: %v", err)
		}
		if s.Provenance.Extractor != extract.ExtractorKB || s.Provenance.Source != "dbpedia" {
			t.Fatalf("bad provenance %+v", s.Provenance)
		}
		entity := extract.AttrFromIRI(s.Subject) // local name back to entity
		e, ok := w.Entity(entity)
		if !ok {
			t.Fatalf("statement about unknown entity %q", entity)
		}
		attr := extract.AttrFromIRI(s.Predicate)
		total++
		if w.IsTrue(e, attr, s.Object.Value) {
			correct++
		}
	}
	// The KB generator's error rate is 0 here, so everything must be true.
	if correct != total {
		t.Errorf("KB statements correct %d/%d, want all true at zero error rate", correct, total)
	}
}

func TestExtractStatementsWithErrors(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 6, EntitiesPerClass: 15, AttrsPerEntity: 14})
	db := kb.GenerateDBpedia(w, kb.KBGenConfig{Seed: 6, Coverage: 0.6, ErrorRate: 0.3})
	stmts := ExtractStatements(context.Background(), confidence.Default(), db).AppendStatements(nil)
	wrong := 0
	for _, s := range stmts {
		entity := extract.AttrFromIRI(s.Subject)
		e, _ := w.Entity(entity)
		if e == nil {
			continue
		}
		if !w.IsTrue(e, extract.AttrFromIRI(s.Predicate), s.Object.Value) {
			wrong++
		}
	}
	if wrong == 0 {
		t.Error("expected some wrong statements at 0.3 KB error rate")
	}
}

func TestExtractAttributesSingleKB(t *testing.T) {
	_, db, _ := setup()
	res := ExtractAttributes(context.Background(), nil, db)
	cr := res.PerClass["Film"]
	if cr.Combined.Len() != cr.Expanded["DBpedia"].Len() {
		t.Error("single-KB combine must equal that KB's expansion")
	}
	if _, ok := cr.Expanded["Freebase"]; ok {
		t.Error("Freebase present without input")
	}
}

// TestStatementsOfSeveralKBs: the statements of two KBs in one call are the
// first KB's alone followed by the second's, as many as were counted, each at
// the criterion's confidence (the maximum without one) under its KB's name
// in lower case — with corrupted values, and where a surface name has no
// canonical form, whose values make no statement. No KB makes none.
func TestStatementsOfSeveralKBs(t *testing.T) {
	ctx := context.Background()
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
			conf := confidence.MaxConfidence
			if crit != nil {
				conf = crit.Score(extract.ExtractorKB, 3, 1)
			}
			counted := ExtractStatements(ctx, crit, db, fb)
			got := counted.AppendStatements(nil)
			first := ExtractStatements(ctx, crit, db).AppendStatements(nil)
			if want := ExtractStatements(ctx, crit, fb).AppendStatements(first); counted.Len() != len(got) || !slices.Equal(got, want) {
				t.Fatalf("seed %d: %d statements counted, %d appended, %d from one KB a call", seed, counted.Len(), len(got), len(want))
			}
			nobody := 0
			for i, s := range got {
				if source := []string{"dbpedia", "freebase"}[min(i/len(first), 1)]; s.Provenance.Source != source || s.Confidence != conf {
					t.Fatalf("seed %d: statement %d is %v, want one of %s at %v", seed, i, s, source, conf)
				}
				switch subject := extract.AttrFromIRI(s.Subject); {
				case subject == "Nobody 1", subject == "Nobody 2" && s.Object.Value == "c":
					t.Fatalf("seed %d: %v is under a name with no canonical form", seed, s)
				case subject == "Nobody 2":
					nobody++
				}
			}
			if nobody == 0 {
				t.Errorf("seed %d: Nobody 2's named sub-fields make no statement", seed)
			}
		}
	}
	if got := ExtractStatements(ctx, nil).AppendStatements(nil); len(got) != 0 {
		t.Errorf("no KB gives %d statements", len(got))
	}
}
