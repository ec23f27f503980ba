// Package qsx implements the paper's improved query-stream attribute
// extraction: it matches query records against the attribute-question
// patterns "what/how/when/who is the A of (the/a/an) E", "the A of
// (the/a/an) E" and "E's A", recognises entities against a class-specified
// entity set, applies filtering rules to exclude meaningless attributes, and
// keeps attributes whose support passes a credibility threshold — the
// procedure behind Table 3.
package qsx

import (
	"context"
	"sort"
	"strings"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/obs"
	"akb/internal/querystream"
)

// minEntities is the number of distinct entities an attribute must be
// asked about to be credible (guards against single-entity
// idiosyncrasies). The mention count it needs is
// querystream.CredibleThreshold.
const minEntities = 2

// ClassResult is the per-class outcome: the Table 3 row plus evidence.
type ClassResult struct {
	Class string
	// RelevantRecords counts query records that matched a pattern with a
	// recognised entity of this class ("Relevant Query Records").
	RelevantRecords int
	// Support maps each surfaced attribute to its mention count.
	Support map[string]int
	// EntitySupport maps each attribute to the distinct entities asked.
	EntitySupport map[string]map[string]struct{}
	// Credible is the filtered, thresholded attribute set
	// ("Credible Attributes"; empty models the paper's N/A).
	Credible extract.AttrSet
	// Filtered counts attribute mentions dropped by the filtering rules.
	Filtered int
}

// Result is the extraction outcome over all classes.
type Result struct {
	PerClass map[string]*ClassResult
	// TotalRecords is the stream size scanned.
	TotalRecords int
}

// Classes returns class names in sorted order.
func (r *Result) Classes() []string {
	out := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// patternHeads are the question-prefixes of the "… the A of E" pattern
// family. Order matters: longer heads first so "what is the" wins over
// "the".
var patternHeads = []string{
	"what is the ", "how is the ", "when is the ", "who is the ", "the ",
}

// meaningless is the built-in filter list: surface attributes that carry no
// ontological content. It mirrors querystream.MeaninglessAttributes plus
// common navigational words, but is maintained independently because a real
// deployment curates these rules by hand.
var meaningless = map[string]bool{
	"photos": true, "pictures": true, "images": true, "lyrics": true,
	"meaning": true, "wiki": true, "review": true, "reviews": true,
	"trailer": true, "wallpaper": true, "news": true, "quotes": true,
	"cast photos": true, "full movie": true, "pdf": true, "summary": true,
	"website": true, "homepage": true, "video": true, "videos": true,
}

// Extract scans the stream and produces per-class attribute extractions.
// Entity recognition uses idx; classes with no recognised entities simply
// yield empty results.
func Extract(ctx context.Context, stream *querystream.Stream, idx *extract.EntityIndex, crit *confidence.Criterion) *Result {
	res := &Result{PerClass: make(map[string]*ClassResult), TotalRecords: stream.Len()}
	classResult := func(class string) *ClassResult {
		cr, ok := res.PerClass[class]
		if !ok {
			cr = &ClassResult{
				Class:         class,
				Support:       make(map[string]int),
				EntitySupport: make(map[string]map[string]struct{}),
				Credible:      extract.NewAttrSet(),
			}
			res.PerClass[class] = cr
		}
		return cr
	}

	for _, rec := range stream.Records {
		attr, entity, ok := MatchPattern(rec.Text, idx)
		if !ok {
			continue
		}
		class, _ := idx.Class(entity)
		cr := classResult(class)
		cr.RelevantRecords++
		norm := extract.NormalizeLabel(attr)
		if norm == "" {
			continue
		}
		if meaningless[norm] || failsFilterRules(norm) {
			cr.Filtered++
			continue
		}
		cr.Support[norm]++
		es := cr.EntitySupport[norm]
		if es == nil {
			es = make(map[string]struct{})
			cr.EntitySupport[norm] = es
		}
		es[entity] = struct{}{}
	}

	// Credibility thresholding.
	for _, cr := range res.PerClass {
		for attr, n := range cr.Support {
			if n >= querystream.CredibleThreshold && len(cr.EntitySupport[attr]) >= minEntities {
				for i := 0; i < n; i++ {
					cr.Credible.Add(attr, "querystream")
				}
			}
		}
		if crit != nil {
			for attr, ev := range cr.Credible {
				ev.Confidence = crit.Score(extract.ExtractorQuery, cr.Support[attr], len(cr.EntitySupport[attr]))
			}
		}
	}
	reg := obs.Reg(ctx)
	reg.Counter("akb_qsx_records_total").Add(int64(stream.Len()))
	credible := 0
	for _, cr := range res.PerClass {
		credible += len(cr.Credible)
	}
	reg.Counter("akb_qsx_credible_attrs_total").Add(int64(credible))
	return res
}

// failsFilterRules applies structural filtering rules beyond the word list:
// too-short tokens, pure numbers, and overly long phrases are excluded.
func failsFilterRules(attr string) bool {
	if len(attr) < 3 {
		return true
	}
	words := strings.Fields(attr)
	if len(words) > 5 {
		return true
	}
	digits := 0
	for _, r := range attr {
		if r >= '0' && r <= '9' {
			digits++
		}
	}
	return digits == len(attr)
}

// MatchPattern tries the attribute-question patterns against a query and
// returns the raw attribute phrase and recognised entity. Entity recognition
// scans " of "-split points left to right and accepts the first suffix
// (after stripping a "the/a/an" determiner) that is a known entity, which
// correctly handles attributes and entities that themselves contain "of".
func MatchPattern(q string, idx *extract.EntityIndex) (attr, entity string, ok bool) {
	// Family 1: "<head> A of (the|a|an) E".
	for _, head := range patternHeads {
		if !strings.HasPrefix(q, head) {
			continue
		}
		rest := q[len(head):]
		if a, e, found := splitAttrOfEntity(rest, idx); found {
			return a, e, true
		}
		// Only the longest matching head is tried: "what is the ..." must
		// not fall back to the bare "the " head with "is" inside the
		// attribute.
		break
	}
	// Family 2: "E's A".
	if i := strings.Index(q, "'s "); i > 0 {
		if _, known := idx.Class(q[:i]); known {
			a := q[i+len("'s "):]
			if a != "" {
				return a, q[:i], true
			}
		}
	}
	return "", "", false
}

func splitAttrOfEntity(rest string, idx *extract.EntityIndex) (attr, entity string, ok bool) {
	j := 0
	for {
		k := strings.Index(rest[j:], " of ")
		if k < 0 {
			return "", "", false
		}
		attr = rest[:j+k]
		suffix := rest[j+k+len(" of "):]
		for _, det := range []string{"the ", "a ", "an "} {
			if strings.HasPrefix(suffix, det) {
				if _, known := idx.Class(suffix[len(det):]); known {
					return attr, suffix[len(det):], true
				}
			}
		}
		if _, known := idx.Class(suffix); known {
			return attr, suffix, true
		}
		j += k + len(" of ")
	}
}

// Table3Row is one row of the paper's Table 3 as computed by the extractor.
type Table3Row struct {
	Class           string
	RelevantRecords int
	// CredibleAttrs is the credible attribute count; -1 renders as the
	// paper's "N/A".
	CredibleAttrs int
}

// Table3 renders rows in the paper's class order. Classes whose credible
// set is empty report -1 (N/A), as the paper does for Hotel.
func (r *Result) Table3() []Table3Row {
	order := []string{"Book", "Film", "Country", "University", "Hotel"}
	var rows []Table3Row
	emit := func(c string) {
		cr, ok := r.PerClass[c]
		if !ok {
			return
		}
		n := cr.Credible.Len()
		if n == 0 {
			n = -1
		}
		rows = append(rows, Table3Row{Class: c, RelevantRecords: cr.RelevantRecords, CredibleAttrs: n})
	}
	seen := map[string]bool{}
	for _, c := range order {
		emit(c)
		seen[c] = true
	}
	for _, c := range r.Classes() {
		if !seen[c] {
			emit(c)
		}
	}
	return rows
}
