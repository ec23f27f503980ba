package textx

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/webgen"
)

func setup(t *testing.T) (*kb.World, []*webgen.Document, *extract.EntityIndex, map[string]extract.AttrSet) {
	t.Helper()
	w := kb.NewWorld(kb.WorldConfig{Seed: 3, EntitiesPerClass: 20, AttrsPerEntity: 12})
	docs := webgen.GenerateCorpus(w, webgen.TextConfig{
		Seed: 3, DocsPerClass: 8, FactsPerDoc: 10, ValueErrorRate: 0.1, DistractorShare: 0.6,
	})
	idx := extract.NewEntityIndexFromWorld(w)
	seeds := make(map[string]extract.AttrSet)
	for _, cls := range w.Ontology.ClassNames() {
		s := extract.NewAttrSet()
		attrs := w.Ontology.Class(cls).AttributeNames()
		for i := 0; i < 6 && i < len(attrs); i++ {
			s.Add(attrs[i], "seed")
		}
		seeds[cls] = s
	}
	return w, docs, idx, seeds
}

func TestExtractLearnsPatterns(t *testing.T) {
	_, docs, idx, seeds := setup(t)
	res := Extract(context.Background(), docs, idx, seeds, Config{}, confidence.Default())
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns learned")
	}
	// The corpus instantiates four sentence shapes; with enough seeds all
	// four should be learned.
	if len(res.Patterns) != 4 {
		t.Errorf("learned %d patterns, want 4: %v", len(res.Patterns), res.Patterns)
	}
	for _, p := range res.Patterns {
		if !strings.Contains(p, slotE) || !strings.Contains(p, slotA) || !strings.Contains(p, slotV) {
			t.Errorf("pattern %q missing a slot", p)
		}
	}
}

func TestExtractDiscoversAttributes(t *testing.T) {
	w, docs, idx, seeds := setup(t)
	res := Extract(context.Background(), docs, idx, seeds, Config{}, confidence.Default())
	totalDiscovered := 0
	for _, cls := range w.Ontology.ClassNames() {
		cr := res.PerClass[cls]
		if cr == nil {
			t.Fatalf("no result for %s", cls)
		}
		totalDiscovered += cr.Discovered.Len()
		class := w.Ontology.Class(cls)
		for attr := range cr.Discovered {
			if _, ok := class.Attribute(attr); !ok {
				t.Errorf("%s: discovered non-ontology attribute %q", cls, attr)
			}
		}
	}
	if totalDiscovered == 0 {
		t.Fatal("no attributes discovered beyond seeds")
	}
}

func TestExtractStatementsQuality(t *testing.T) {
	w, docs, idx, seeds := setup(t)
	res := Extract(context.Background(), docs, idx, seeds, Config{}, confidence.Default())
	stmts := res.AppendStatements(nil)
	if len(stmts) == 0 {
		t.Fatal("no statements")
	}
	correct, total := 0, 0
	for _, s := range stmts {
		if err := s.Valid(); err != nil {
			t.Fatalf("invalid statement: %v", err)
		}
		entity := extract.AttrFromIRI(s.Subject)
		e, ok := w.Entity(entity)
		if !ok {
			t.Fatalf("unknown entity %q", entity)
		}
		total++
		if w.IsTrue(e, extract.AttrFromIRI(s.Predicate), s.Object.Value) {
			correct++
		}
	}
	prec := float64(correct) / float64(total)
	if prec < 0.75 {
		t.Errorf("precision = %.3f (%d/%d), want >= 0.75 at 10%% corpus error", prec, correct, total)
	}
}

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("One fact. Another fact here. Last.")
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %v", len(got), got)
	}
	if got[0] != "One fact." || got[2] != "Last." {
		t.Errorf("sentences = %v", got)
	}
	if n := len(SplitSentences("")); n != 0 {
		t.Errorf("empty text gave %d sentences", n)
	}
	if n := len(SplitSentences("No trailing period")); n != 1 {
		t.Errorf("unterminated text gave %d sentences", n)
	}
}

func TestTokenizeSentence(t *testing.T) {
	got := TokenizeSentence("Casablanca A7's director is Jane Doe.")
	want := []string{"Casablanca", "A7", "'s", "director", "is", "Jane", "Doe", "."}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAbstractSentence(t *testing.T) {
	tmpl, ok := abstractSentence("The director of Casablanca A7 is Jane Doe.", "Casablanca A7", "director")
	if !ok {
		t.Fatal("abstraction failed")
	}
	if tmpl != "the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ ." {
		t.Errorf("template = %q", tmpl)
	}
	tmpl2, ok2 := abstractSentence("Casablanca A7's composer is John Smith.", "Casablanca A7", "composer")
	if !ok2 || tmpl2 != "⟨E⟩ 's ⟨A⟩ is ⟨V⟩ ." {
		t.Errorf("clitic template = %q, ok=%v", tmpl2, ok2)
	}
	if _, ok3 := abstractSentence("The director of X is.", "X", "director"); ok3 {
		t.Error("valueless sentence abstracted")
	}
}

func TestMatchTemplateAttributeContainingOf(t *testing.T) {
	w, _, idx, _ := setup(t)
	e := w.EntityNames("Film")[0]
	tmpl := parseTemplate("the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ .")
	toks := TokenizeSentence("The country of origin of " + e + " is Fooland.")
	b, ok := matchTemplate(tmpl, toks, idx, Config{})
	if !ok {
		t.Fatal("no match")
	}
	if b.attr != "country of origin" {
		t.Errorf("attr = %q, want country of origin", b.attr)
	}
	if b.entity != e {
		t.Errorf("entity = %q, want %q", b.entity, e)
	}
	if b.value != "Fooland" {
		t.Errorf("value = %q", b.value)
	}
}

func TestMatchTemplateEntityContainingOf(t *testing.T) {
	w, _, idx, _ := setup(t)
	uni := w.EntityNames("University")[0]
	tmpl := parseTemplate("the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ .")
	toks := TokenizeSentence("The motto of " + uni + " is Excelsior.")
	b, ok := matchTemplate(tmpl, toks, idx, Config{})
	if !ok {
		t.Fatal("no match")
	}
	if b.entity != uni || b.attr != "motto" || b.value != "Excelsior" {
		t.Errorf("binding = %+v", b)
	}
}

func TestMaxSlotTokensBoundsASlot(t *testing.T) {
	w, _, idx, _ := setup(t)
	e := w.EntityNames("Film")[0]
	tmpl := parseTemplate("the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ .")
	value := func(n int) string { return strings.TrimSpace(strings.Repeat("Leo ", n)) }
	for _, n := range []int{maxSlotTokens, maxSlotTokens + 1} {
		toks := TokenizeSentence("The director of " + e + " is " + value(n) + ".")
		b, ok := matchTemplate(tmpl, toks, idx, Config{})
		if want := n <= maxSlotTokens; ok != want || (ok && b.value != value(n)) {
			t.Errorf("%d-token value: binding %+v, ok=%v, want ok=%v", n, b, ok, want)
		}
	}
}

func TestMatchTemplateRejectsUnknownEntity(t *testing.T) {
	_, _, idx, _ := setup(t)
	tmpl := parseTemplate("the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ .")
	toks := TokenizeSentence("The capital of Atlantis is Poseidonia.")
	if _, ok := matchTemplate(tmpl, toks, idx, Config{}); ok {
		t.Error("unknown entity accepted without DiscoverEntities")
	}
	cfg := Config{}
	cfg.DiscoverEntities = true
	b, ok := matchTemplate(tmpl, toks, idx, cfg)
	if !ok || b.entity != "" || b.rawEntity != "Atlantis" {
		t.Errorf("entity discovery binding = %+v, ok=%v", b, ok)
	}
}

func TestDiscoverEntitiesEndToEnd(t *testing.T) {
	_, docs, idx, seeds := setup(t)
	// Plant sentences about an unknown entity using a seed attribute.
	planted := &webgen.Document{
		ID: "planted", Source: "planted.example.org", Class: "Film",
		Text: "The composer of Zanzibar Nights is Leo Fontaine. The composer of Zanzibar Nights is Leo Fontaine.",
	}
	docs = append(docs, planted)
	cfg := Config{}
	cfg.DiscoverEntities = true
	res := Extract(context.Background(), docs, idx, seeds, cfg, nil)
	if res.NewEntities["Zanzibar Nights"] < 2 {
		t.Errorf("new entity support = %d, want >= 2 (map: %v)", res.NewEntities["Zanzibar Nights"], res.NewEntities)
	}
}

func TestMinPatternSupportFiltersRareTemplates(t *testing.T) {
	w, _, idx, seeds := setup(t)
	e := w.EntityNames("Film")[0]
	attr := seeds["Film"].Names()[0]
	// One seed sentence a document, all of one shape: the template is
	// learned only once minPatternSupport sentences carry it.
	docsOf := func(n int) []*webgen.Document {
		var docs []*webgen.Document
		for i := 0; i < n; i++ {
			docs = append(docs, &webgen.Document{
				ID: fmt.Sprintf("d%d", i), Source: fmt.Sprintf("s%d.example.org", i), Class: "Film",
				Text: "Reportedly the " + attr + " of " + e + " is Leo Fontaine.",
			})
		}
		return docs
	}
	under := Extract(context.Background(), docsOf(minPatternSupport-1), idx, seeds, Config{}, nil)
	if len(under.Patterns) != 0 || under.Claims.Len() != 0 {
		t.Errorf("%d seed sentences: learned %v and %d statements, want none", minPatternSupport-1, under.Patterns, under.Claims.Len())
	}
	at := Extract(context.Background(), docsOf(minPatternSupport), idx, seeds, Config{}, nil)
	if want := []string{"reportedly the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ ."}; !reflect.DeepEqual(at.Patterns, want) {
		t.Errorf("%d seed sentences: learned %q, want %q", minPatternSupport, at.Patterns, want)
	}
	if at.Claims.Len() == 0 {
		t.Errorf("%d seed sentences: no statements from the learned template", minPatternSupport)
	}
}

func TestContainsWord(t *testing.T) {
	cases := []struct {
		hay, needle string
		want        bool
	}{
		{"the director of X", "director", true},
		{"the codirector of X", "director", false},
		{"director", "director", true},
		{"a directors cut", "director", false},
		{"X's director.", "director", true},
	}
	for _, c := range cases {
		if got := containsWord(c.hay, c.needle); got != c.want {
			t.Errorf("containsWord(%q, %q) = %v, want %v", c.hay, c.needle, got, c.want)
		}
		if got := newPhraseSet([]string{c.needle}).longestIn(c.hay) == c.needle; got != c.want {
			t.Errorf("phraseSet{%q}.longestIn(%q) found = %v, want %v", c.needle, c.hay, got, c.want)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	_, docs, idx, seeds := setup(t)
	a := Extract(context.Background(), docs, idx, seeds, Config{}, confidence.Default())
	b := Extract(context.Background(), docs, idx, seeds, Config{}, confidence.Default())
	sa, sb := a.AppendStatements(nil), b.AppendStatements(nil)
	if len(sa) != len(sb) {
		t.Fatal("statement counts differ")
	}
	for i := range sa {
		if sa[i].String() != sb[i].String() {
			t.Fatalf("statement %d differs", i)
		}
	}
}

// TestParallelMatchesSerial pins the determinism contract of per-document
// parallelism: any worker count yields byte-identical results, including
// pattern order, statements, and discovery output.
func TestParallelMatchesSerial(t *testing.T) {
	_, docs, idx, seeds := setup(t)
	cfg := Config{}
	cfg.DiscoverEntities = true
	serial := Extract(context.Background(), docs, idx, seeds, cfg, confidence.Default())
	for _, workers := range []int{2, 8} {
		pcfg := cfg
		pcfg.Workers = workers
		par := Extract(context.Background(), docs, idx, seeds, pcfg, confidence.Default())
		if !reflect.DeepEqual(par.Patterns, serial.Patterns) {
			t.Errorf("workers=%d: patterns differ from serial", workers)
		}
		if !reflect.DeepEqual(par.AppendStatements(nil), serial.AppendStatements(nil)) {
			t.Errorf("workers=%d: statements differ from serial", workers)
		}
		if !reflect.DeepEqual(par.NewEntities, serial.NewEntities) {
			t.Errorf("workers=%d: new entities differ from serial", workers)
		}
		if !reflect.DeepEqual(par.NewEntityFacts, serial.NewEntityFacts) {
			t.Errorf("workers=%d: entity facts differ from serial", workers)
		}
		for cls, scr := range serial.PerClass {
			pcr := par.PerClass[cls]
			if !reflect.DeepEqual(pcr.All, scr.All) || !reflect.DeepEqual(pcr.Discovered, scr.Discovered) {
				t.Errorf("workers=%d: class %s attribute sets differ from serial", workers, cls)
			}
		}
	}
}

// TestMatchDocAllocationBound pins the per-document matching path's
// allocation behaviour: the matcher's slot buffers are reused across
// every (sentence, template) pair, so allocations are dominated by the
// accepted matches' joined strings and the event slice — a small constant
// per sentence — instead of the per-call binding maps the first
// implementation paid (one map plus per-slot slices for every pair).
func TestMatchDocAllocationBound(t *testing.T) {
	_, docs, idx, seeds := setup(t)
	cfg := Config{}
	res := Extract(context.Background(), docs, idx, seeds, cfg, confidence.Default())
	if len(res.Patterns) == 0 {
		t.Fatal("fixture learned no patterns")
	}
	var templates []template
	for _, p := range res.Patterns {
		templates = append(templates, parseTemplate(p))
	}
	known := func(string) bool { return true }
	w := docWork{doc: docs[0], sents: SplitSentences(docs[0].Text)}
	for _, s := range w.sents {
		w.toks = append(w.toks, TokenizeSentence(s))
	}
	allocs := testing.AllocsPerRun(50, func() { matchDoc(w, templates, idx, cfg, known) })
	// Currently ~4.5 allocations per sentence on this fixture; 8 leaves
	// headroom without letting per-pair allocations back in (those cost
	// ≥ len(templates) per sentence on their own).
	if limit := float64(8 * len(w.sents)); allocs > limit {
		t.Errorf("matchDoc allocates %.0f times for %d sentences, want <= %.0f", allocs, len(w.sents), limit)
	}
}
