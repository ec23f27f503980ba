// Package temporalx implements temporal knowledge extraction and fusion —
// the fourth extractor family in the paper's taxonomy (after Alonso et al.
// and Berberich et al.): identifying "the facts on given relations at
// different time points" and the valid time spans of those facts.
//
// Extraction matches time-scoped sentence patterns ("V was the A of E from
// Y1 to Y2.", "V has been the A of E since Y1.") against the corpus with
// dictionary-validated entity slots. Fusion resolves conflicting timelines
// per (entity, attribute) by year-level weighted voting, then compresses
// the per-year winners back into spans.
package temporalx

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// PresentYear is the "now" horizon for open-ended spans ("since 1996"),
// fixed to the paper's era so runs are deterministic.
const PresentYear = 2015

// Statement is one time-scoped claim.
type Statement struct {
	Entity string
	Attr   string
	Value  string
	From   int
	To     int
	Source string
	Doc    string
}

// String renders the statement for logs.
func (s Statement) String() string {
	return fmt.Sprintf("(%s, %s, %s) @ [%d, %d] from %s", s.Entity, s.Attr, s.Value, s.From, s.To, s.Source)
}

// ExtractText mines time-scoped statements from the corpus. Patterns:
//
//	⟨V⟩ was the ⟨A⟩ of ⟨E⟩ from ⟨Y1⟩ to ⟨Y2⟩.
//	⟨V⟩ has been the ⟨A⟩ of ⟨E⟩ since ⟨Y1⟩.
//
// The entity slot is validated against the index; years must parse and be
// ordered.
func ExtractText(docs []*webgen.Document, idx *extract.EntityIndex) []Statement {
	var out []Statement
	for _, doc := range docs {
		for _, sent := range splitSentences(doc.Text) {
			st, ok := matchTemporal(sent, idx)
			if !ok {
				continue
			}
			st.Source = doc.Source
			st.Doc = doc.ID
			out = append(out, st)
		}
	}
	return out
}

func splitSentences(text string) []string {
	var out []string
	for {
		i := strings.Index(text, ". ")
		if i < 0 {
			break
		}
		out = append(out, strings.TrimSpace(text[:i+1]))
		text = text[i+2:]
	}
	if t := strings.TrimSpace(text); t != "" {
		out = append(out, t)
	}
	return out
}

// matchTemporal parses one sentence against the temporal patterns.
func matchTemporal(sent string, idx *extract.EntityIndex) (Statement, bool) {
	sent = strings.TrimSuffix(sent, ".")
	// Closed span: "... from Y1 to Y2".
	if i := strings.LastIndex(sent, " from "); i > 0 {
		head, tail := sent[:i], sent[i+len(" from "):]
		parts := strings.Split(tail, " to ")
		if len(parts) == 2 {
			from, errF := strconv.Atoi(strings.TrimSpace(parts[0]))
			to, errT := strconv.Atoi(strings.TrimSpace(parts[1]))
			if errF == nil && errT == nil && plausibleYear(from) && plausibleYear(to) && from <= to {
				if st, ok := parseVofE(head, idx); ok {
					st.From, st.To = from, to
					return st, true
				}
			}
		}
	}
	// Open span: "... since Y1".
	if i := strings.LastIndex(sent, " since "); i > 0 {
		head, tail := sent[:i], sent[i+len(" since "):]
		from, err := strconv.Atoi(strings.TrimSpace(tail))
		if err == nil && plausibleYear(from) {
			if st, ok := parseVofE(head, idx); ok {
				st.From, st.To = from, PresentYear
				return st, true
			}
		}
	}
	return Statement{}, false
}

// parseVofE parses "V was|has been the A of E" with entity validation.
func parseVofE(head string, idx *extract.EntityIndex) (Statement, bool) {
	var v, rest string
	if i := strings.Index(head, " was the "); i > 0 {
		v, rest = head[:i], head[i+len(" was the "):]
	} else if i := strings.Index(head, " has been the "); i > 0 {
		v, rest = head[:i], head[i+len(" has been the "):]
	} else {
		return Statement{}, false
	}
	// rest = "A of E"; scan " of " splits for a known entity suffix.
	j := 0
	for {
		k := strings.Index(rest[j:], " of ")
		if k < 0 {
			return Statement{}, false
		}
		attr := rest[:j+k]
		entity := rest[j+k+len(" of "):]
		if _, ok := idx.Class(entity); ok {
			attr = extract.NormalizeLabel(attr)
			if v != "" && extract.ValidAttributeLabel(attr) {
				return Statement{Entity: entity, Attr: attr, Value: v}, true
			}
			return Statement{}, false
		}
		j += k + len(" of ")
	}
}

func plausibleYear(y int) bool { return y >= 1000 && y <= 2100 }

// --- Timeline fusion ------------------------------------------------------

// Timeline is a fused attribute history.
type Timeline struct {
	Entity string
	Attr   string
	Spans  []kb.Span
}

// FuseTimelines resolves conflicting temporal claims: for every year in the
// claimed range of an item, the value asserted by the most (distinct)
// sources covering that year wins; consecutive years with the same winner
// compress into spans. Ties break to the lexicographically smaller value so
// fusion is deterministic.
func FuseTimelines(stmts []Statement) []Timeline {
	type item struct{ entity, attr string }
	type claimSpan struct {
		value    string
		from, to int
		sources  map[string]struct{}
	}
	grouped := map[item]map[string]*claimSpan{} // item -> value+span key -> claim

	keyOf := func(s Statement) string {
		return s.Value + "\x00" + strconv.Itoa(s.From) + "\x00" + strconv.Itoa(s.To)
	}
	for _, s := range stmts {
		it := item{s.Entity, s.Attr}
		m := grouped[it]
		if m == nil {
			m = map[string]*claimSpan{}
			grouped[it] = m
		}
		c := m[keyOf(s)]
		if c == nil {
			c = &claimSpan{value: s.Value, from: s.From, to: s.To, sources: map[string]struct{}{}}
			m[keyOf(s)] = c
		}
		c.sources[s.Source] = struct{}{}
	}

	items := make([]item, 0, len(grouped))
	for it := range grouped {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].entity != items[j].entity {
			return items[i].entity < items[j].entity
		}
		return items[i].attr < items[j].attr
	})

	var out []Timeline
	for _, it := range items {
		claims := grouped[it]
		lo, hi := 1<<31, 0
		for _, c := range claims {
			if c.from < lo {
				lo = c.from
			}
			if c.to > hi {
				hi = c.to
			}
		}
		// Year-level weighted vote.
		winners := make([]string, hi-lo+1)
		for y := lo; y <= hi; y++ {
			best, bestN := "", 0
			for _, c := range claims {
				if y < c.from || y > c.to {
					continue
				}
				n := len(c.sources)
				if n > bestN || (n == bestN && (best == "" || c.value < best)) {
					best, bestN = c.value, n
				}
			}
			winners[y-lo] = best
		}
		// Compress runs.
		tl := Timeline{Entity: it.entity, Attr: it.attr}
		for y := 0; y < len(winners); {
			v := winners[y]
			z := y
			for z < len(winners) && winners[z] == v {
				z++
			}
			if v != "" {
				tl.Spans = append(tl.Spans, kb.Span{Value: v, From: lo + y, To: lo + z - 1})
			}
			y = z
		}
		if len(tl.Spans) > 0 {
			out = append(out, tl)
		}
	}
	return out
}

// --- Evaluation ------------------------------------------------------------

// Accuracy measures year-level agreement between fused timelines and the
// world's ground truth over the years the fused timeline covers. It returns
// (correct years, total years).
func Accuracy(w *kb.World, timelines []Timeline) (correct, total int) {
	for _, tl := range timelines {
		e, ok := w.Entity(tl.Entity)
		if !ok {
			for _, sp := range tl.Spans {
				total += sp.To - sp.From + 1
			}
			continue
		}
		for _, sp := range tl.Spans {
			for y := sp.From; y <= sp.To; y++ {
				total++
				if e.ValueAt(tl.Attr, y) == sp.Value {
					correct++
				}
			}
		}
	}
	return correct, total
}
