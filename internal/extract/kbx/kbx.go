// Package kbx extracts attributes and triples from existing knowledge bases
// (the synthetic Freebase and DBpedia of internal/kb). It implements the
// paper's first extraction source: raw KB properties are flattened
// (composite properties expand into their sub-attributes), surface names are
// normalised to canonical form, duplicates are removed, and finally the two
// KBs' attribute sets are combined — the procedure behind Table 2.
package kbx

import (
	"context"
	"slices"
	"sort"
	"strings"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/obs"
	"akb/internal/rdf"
)

// ClassResult holds the per-class attribute extraction outcome for Table 2.
type ClassResult struct {
	Class string
	// Raw maps KB name to its raw property count (columns "DBpedia" and
	// "Freebase").
	Raw map[string]int
	// Expanded maps KB name to the canonical attributes recovered from it
	// (columns "Extrac.(DBpedia)" and "Extrac.(Freebase)").
	Expanded map[string]extract.AttrSet
	// Combined is the union after cross-KB alignment (column
	// "Combine(Freebase&DBpedia)").
	Combined extract.AttrSet
}

// Result is the full attribute-extraction outcome across classes.
type Result struct {
	// PerClass maps class name to its result.
	PerClass map[string]*ClassResult
}

// Classes returns the class names in sorted order.
func (r *Result) Classes() []string {
	out := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// SeedSet returns the combined attribute set for a class — the seed set
// consumed by the DOM-tree and Web-text extractors.
func (r *Result) SeedSet(class string) extract.AttrSet {
	cr, ok := r.PerClass[class]
	if !ok {
		return extract.NewAttrSet()
	}
	return cr.Combined
}

// ExtractAttributes runs attribute extraction over the given source KBs and
// combines their per-class attribute sets. Only surface property names are
// consulted; canonical names are recovered by normalisation, so the
// extraction is honest to what a real system could do.
func ExtractAttributes(ctx context.Context, crit *confidence.Criterion, kbs ...*kb.SourceKB) *Result {
	res := &Result{PerClass: make(map[string]*ClassResult)}
	for _, src := range kbs {
		for class, props := range src.Properties {
			cr := res.PerClass[class]
			if cr == nil {
				cr = &ClassResult{
					Class:    class,
					Raw:      make(map[string]int),
					Expanded: make(map[string]extract.AttrSet),
					Combined: extract.NewAttrSet(),
				}
				res.PerClass[class] = cr
			}
			cr.Raw[src.Name] = len(props)
			expanded := expandProperties(class, src, props)
			cr.Expanded[src.Name] = expanded
			cr.Combined.Union(expanded)
		}
	}
	if crit != nil {
		for _, cr := range res.PerClass {
			for _, set := range cr.Expanded {
				crit.ScoreAttrSet(extract.ExtractorKB, set)
			}
			crit.ScoreAttrSet(extract.ExtractorKB, cr.Combined)
		}
	}
	attrs := 0
	for _, cr := range res.PerClass {
		attrs += cr.Combined.Len()
	}
	obs.Reg(ctx).Counter("akb_kbx_attrs_total").Add(int64(attrs))
	return res
}

// expandProperties flattens a KB's raw properties for one class into a
// deduplicated canonical attribute set: simple properties contribute their
// own normalised name; composite properties contribute one attribute per
// sub-field.
func expandProperties(class string, src *kb.SourceKB, props []kb.Property) extract.AttrSet {
	out := extract.NewAttrSet()
	source := strings.ToLower(src.Name)
	for _, p := range props {
		for _, f := range p.Fields {
			surface := f.Name
			if surface == "" {
				surface = p.Name
			}
			canonical := kb.CanonicalAttributeName(surface, class)
			if canonical == "" {
				continue
			}
			out.Add(canonical, source)
		}
	}
	return out
}

// Statements is the source KBs' facts as confidence-annotated RDF
// statements for the fusion phase, counted but not yet made:
// AppendStatements makes them into a list its caller sized with Len.
type Statements struct {
	kbs []*kb.SourceKB
	// classes[i] is kbs[i]'s class names in sorted order, the order walk
	// visits them in: ordered once a KB, not once a walk.
	classes [][]string
	conf    float64
	n       int
	// predicates holds the predicate IRI of each (class, surface name) the
	// count met; the zero Term stands for a name with no canonical form.
	predicates map[surface]rdf.Term
}

type surface struct{ class, name string }

// ExtractStatements counts the statements of the source KBs' facts. What a
// statement shares with its neighbours is made once, when the facts are
// counted: the predicate IRI (and the canonical name under it) per (class,
// surface name).
func ExtractStatements(ctx context.Context, crit *confidence.Criterion, kbs ...*kb.SourceKB) *Statements {
	s := &Statements{kbs: kbs, classes: make([][]string, len(kbs)), conf: confidence.MaxConfidence, predicates: make(map[surface]rdf.Term)}
	if crit != nil {
		// KB facts are single-source claims with full extractor support.
		s.conf = crit.Score(extract.ExtractorKB, 3, 1)
	}
	for i, src := range kbs {
		classes := make([]string, 0, len(src.Facts))
		for c := range src.Facts {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		s.classes[i] = classes
		s.walk(i, func(_ *kb.Fact, _ rdf.Term, values []string) { s.n += len(values) })
	}
	obs.Reg(ctx).Counter("akb_kbx_statements_total").Add(int64(s.n))
	return s
}

// Len is the number of statements AppendStatements appends.
func (s *Statements) Len() int { return s.n }

// AppendStatements appends the statements to dst, KB after KB in the order
// given, each KB's classes, a fact's sub-fields and their values in sorted
// order. Composite facts make one statement per sub-field value. The
// subject IRI is made once a fact, the provenance once a KB.
func (s *Statements) AppendStatements(dst []rdf.Statement) []rdf.Statement {
	dst = slices.Grow(dst, s.n)
	for i, src := range s.kbs {
		prov := rdf.Provenance{Source: strings.ToLower(src.Name), Extractor: extract.ExtractorKB}
		var of *kb.Fact
		var subject rdf.Term
		s.walk(i, func(fact *kb.Fact, predicate rdf.Term, values []string) {
			if fact != of {
				of, subject = fact, extract.EntityIRI(fact.Entity)
			}
			for _, v := range values {
				dst = append(dst, rdf.S(rdf.T(subject, predicate, rdf.Literal(v)), prov, s.conf))
			}
		})
	}
	return dst
}

func (s *Statements) predicate(class, name string) rdf.Term {
	p, ok := s.predicates[surface{class, name}]
	if !ok {
		if canonical := kb.CanonicalAttributeName(name, class); canonical != "" {
			p = extract.AttrIRI(canonical)
		}
		s.predicates[surface{class, name}] = p
	}
	return p
}

// walk calls emit for every (fact, sub-field) of the k-th KB that has a
// predicate, classes in sorted order and a fact's sub-fields in its rows'
// name order.
func (s *Statements) walk(k int, emit func(fact *kb.Fact, predicate rdf.Term, values []string)) {
	for _, class := range s.classes[k] {
		facts := s.kbs[k].Facts[class]
		for i := range facts {
			fact := &facts[i]
			for _, row := range fact.FieldValues {
				name := row.Attr
				if name == "" {
					name = fact.Property
				}
				if p := s.predicate(class, name); !p.IsZero() {
					emit(fact, p, row.Values)
				}
			}
		}
	}
}

// Table2Row is one row of the paper's Table 2 as computed by the extractor.
type Table2Row struct {
	Class            string
	DBpediaRaw       int
	DBpediaExtracted int
	FreebaseRaw      int
	FreebaseExtract  int
	Combined         int
}

// Table2 renders the result as Table 2 rows in the paper's class order
// (Book, Film, Country, University, Hotel; other classes follow sorted).
func (r *Result) Table2() []Table2Row {
	order := []string{"Book", "Film", "Country", "University", "Hotel"}
	seen := map[string]bool{}
	var classes []string
	for _, c := range order {
		if _, ok := r.PerClass[c]; ok {
			classes = append(classes, c)
			seen[c] = true
		}
	}
	for _, c := range r.Classes() {
		if !seen[c] {
			classes = append(classes, c)
		}
	}
	rows := make([]Table2Row, 0, len(classes))
	for _, c := range classes {
		cr := r.PerClass[c]
		rows = append(rows, Table2Row{
			Class:            c,
			DBpediaRaw:       cr.Raw["DBpedia"],
			DBpediaExtracted: cr.Expanded["DBpedia"].Len(),
			FreebaseRaw:      cr.Raw["Freebase"],
			FreebaseExtract:  cr.Expanded["Freebase"].Len(),
			Combined:         cr.Combined.Len(),
		})
	}
	return rows
}
