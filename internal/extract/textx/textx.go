// Package textx extracts attributes and triples from Web text. Following
// the paper's design, it learns "regular lexical patterns — unified syntax
// rules over the Web" from sentences whose attribute is already in the seed
// set (seeded by the query-stream and existing-KB extractors), then applies
// the learned patterns across the corpus to extract new attributes and
// (entity, attribute, value) statements.
//
// A pattern is a token template with three slots, e.g.
//
//	the ⟨A⟩ of ⟨E⟩ is ⟨V⟩ .
//
// Learning abstracts seed sentences into templates; application matches
// templates against sentences with backtracking, validating the ⟨E⟩ slot
// against the entity index (entity linking) and the ⟨A⟩ slot against
// attribute-label plausibility rules.
package textx

import (
	"context"
	"sort"
	"strings"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/mapreduce"
	"akb/internal/obs"
	"akb/internal/rdf"
	"akb/internal/webgen"
)

// Slot markers inside token templates.
const (
	slotE = "⟨E⟩"
	slotA = "⟨A⟩"
	slotV = "⟨V⟩"
)

// glueWords are function words assumed to belong to the template, not to
// the value span, during pattern abstraction.
var glueWords = map[string]bool{
	"the": true, "of": true, "is": true, "was": true, "has": true,
	"have": true, "a": true, "an": true, "its": true, "are": true,
	"'s": true, ".": true, ",": true,
}

// minPatternSupport is the number of independent seed sentences a template
// needs before it is trusted for application.
const minPatternSupport = 2

// maxSlotTokens bounds how many tokens a slot may capture.
const maxSlotTokens = 6

// Config controls text extraction.
type Config struct {
	// DiscoverEntities also records candidate new entities: well-formed
	// matches whose ⟨E⟩ binding is capitalised but unknown to the index.
	DiscoverEntities bool
	// Workers bounds intra-extractor parallelism. Template learning is a
	// per-document count aggregation and template application is pure per
	// document given the learned templates, so both phases run through the
	// mapreduce executor; match events are replayed in document order, so
	// output is byte-identical at any worker count. <= 1 runs serially.
	Workers int
}

// ClassResult is the per-class outcome.
type ClassResult struct {
	Class string
	// All is the enriched attribute set (seeds plus discoveries).
	All extract.AttrSet
	// Discovered holds attributes found by pattern application that were
	// not in the seeds.
	Discovered extract.AttrSet
}

// Result is the extraction outcome.
type Result struct {
	PerClass map[string]*ClassResult
	// Patterns are the learned templates (canonical token strings) in
	// descending support order.
	Patterns []string
	// Claims are the counted extracted claims with per-document
	// provenance, one statement per (claim, source): Claims.Len()
	// statements, made by AppendStatements.
	Claims *extract.Evidence
	score  func(support, sources int) float64
	// NewEntities maps candidate new entity names to their support, when
	// Config.DiscoverEntities is set.
	NewEntities map[string]int
	// NewEntityFacts holds the full facts matched for unknown entities.
	NewEntityFacts []extract.EntityFact
}

// AppendStatements appends the claims' statements to dst.
func (r *Result) AppendStatements(dst []rdf.Statement) []rdf.Statement {
	return r.Claims.AppendStatements(dst, extract.ExtractorText, r.score)
}

// docWork is one document plus its sentence segmentation and per-sentence
// tokens, computed once and shared by both extraction phases.
type docWork struct {
	doc   *webgen.Document
	sents []string
	toks  [][]string
}

// matchEvent is one template match captured during the parallel map of
// phase 2; entity == "" marks an unknown-entity candidate. Events replay
// serially in document order.
type matchEvent struct {
	class, entity, rawEntity, attr, value, source, doc string
}

// Extract learns patterns from seed-bearing sentences and applies them over
// the corpus.
func Extract(ctx context.Context, docs []*webgen.Document, idx *extract.EntityIndex, seeds map[string]extract.AttrSet, cfg Config, crit *confidence.Criterion) *Result {
	res := &Result{
		PerClass: make(map[string]*ClassResult), NewEntities: make(map[string]int),
		Claims: extract.NewEvidence(), score: crit.ScoreFunc(extract.ExtractorText),
	}
	for class, s := range seeds {
		res.PerClass[class] = &ClassResult{Class: class, All: s.Clone(), Discovered: extract.NewAttrSet()}
	}

	// Pre-pass: segment and tokenize every document exactly once; both
	// phases read the per-doc sentence and token slices.
	mrCfg := mapreduce.Config{Workers: max(cfg.Workers, 1), Obs: obs.Reg(ctx)}
	works := mapreduce.Map(mrCfg, docs, func(doc *webgen.Document) docWork {
		sents := SplitSentences(doc.Text)
		toks := make([][]string, len(sents))
		for i, s := range sents {
			toks[i] = TokenizeSentence(s)
		}
		return docWork{doc: doc, sents: sents, toks: toks}
	})

	// Phase 1: learn templates from sentences containing a known entity and
	// a seed attribute. Support counting is additive per document, so the
	// per-doc abstraction maps in parallel and the counts aggregate
	// serially in document order; the attribute sets are only read here.
	// The phrase sets are built once here and only read by the workers.
	entityNames := newPhraseSet(idx.Names())
	seedAttrs := make(map[string]*phraseSet, len(res.PerClass))
	for class, cr := range res.PerClass {
		seedAttrs[class] = newPhraseSet(cr.All.Names())
	}
	templateSupport := map[string]int{}
	seedTmpls := mapreduce.Map(mrCfg, works, func(w docWork) []string {
		var out []string
		for _, sent := range w.sents {
			e := entityNames.longestIn(sent)
			if e == "" {
				continue
			}
			class, _ := idx.Class(e)
			attrs := seedAttrs[class]
			if attrs == nil {
				continue
			}
			attr := findSeedAttr(sent, e, attrs)
			if attr == "" {
				continue
			}
			if tmpl, ok := abstractSentence(sent, e, attr); ok {
				out = append(out, tmpl)
			}
		}
		return out
	})
	for _, tmpls := range seedTmpls {
		for _, tmpl := range tmpls {
			templateSupport[tmpl]++
		}
	}
	var templates []template
	for tmpl, n := range templateSupport {
		if n >= minPatternSupport {
			templates = append(templates, parseTemplate(tmpl))
			res.Patterns = append(res.Patterns, tmpl)
		}
	}
	sort.Slice(res.Patterns, func(i, j int) bool {
		si, sj := templateSupport[res.Patterns[i]], templateSupport[res.Patterns[j]]
		if si != sj {
			return si > sj
		}
		return res.Patterns[i] < res.Patterns[j]
	})
	sort.Slice(templates, func(i, j int) bool { return templates[i].canon < templates[j].canon })

	// Phase 2: apply templates across the corpus. Matching never reads the
	// growing attribute sets (cr.All only gates whether a matched attribute
	// counts as a discovery), so each document is matched independently and
	// the resulting events are replayed in document order — byte-identical
	// to the serial pass. res.PerClass is read-only during mapping: only
	// key existence is consulted, and keys are fixed at construction.
	known := func(class string) bool { return res.PerClass[class] != nil }
	perDoc := mapreduce.Map(mrCfg, works, func(w docWork) []matchEvent {
		return matchDoc(w, templates, idx, cfg, known)
	})
	for _, events := range perDoc {
		for _, ev := range events {
			foldEvent(res, ev)
		}
	}
	if crit != nil {
		for _, cr := range res.PerClass {
			crit.ScoreAttrSet(extract.ExtractorText, cr.Discovered)
			crit.ScoreAttrSet(extract.ExtractorText, cr.All)
		}
	}
	res.Claims.Count()
	reg := obs.Reg(ctx)
	reg.Counter("akb_textx_statements_total").Add(int64(res.Claims.Len()))
	reg.Counter("akb_textx_patterns_total").Add(int64(len(res.Patterns)))
	return res
}

// matchDoc applies the learned templates to one document's tokenized
// sentences and returns its match events in sentence order. known reports
// whether a class has a result bucket (fixed at construction, so it is
// safe to consult from worker goroutines). Factored out of Extract so the
// AllocsPerRun regression test can bound the per-doc matching path.
func matchDoc(w docWork, templates []template, idx *extract.EntityIndex, cfg Config, known func(class string) bool) []matchEvent {
	var out []matchEvent
	var m matcher
	m.idx = idx
	m.discover = cfg.DiscoverEntities
	for _, toks := range w.toks {
		for _, tmpl := range templates {
			b, ok := m.match(tmpl, toks)
			if !ok {
				continue
			}
			if b.entity == "" {
				// Unknown-entity candidate (new entity creation).
				if cfg.DiscoverEntities && b.rawEntity != "" {
					out = append(out, matchEvent{
						class: w.doc.Class, rawEntity: b.rawEntity,
						attr: b.attr, value: b.value, source: w.doc.Source, doc: w.doc.ID,
					})
				}
				continue
			}
			class, _ := idx.Class(b.entity)
			if !known(class) {
				continue
			}
			out = append(out, matchEvent{
				class: class, entity: b.entity,
				attr: b.attr, value: b.value, source: w.doc.Source, doc: w.doc.ID,
			})
			break // one match per sentence
		}
	}
	return out
}

// foldEvent replays one match event into the result and its claims, in
// document order — the serial aggregation step of phase 2.
func foldEvent(res *Result, ev matchEvent) {
	if ev.entity == "" {
		res.NewEntities[ev.rawEntity]++
		res.NewEntityFacts = append(res.NewEntityFacts, extract.EntityFact{
			Name: ev.rawEntity, Class: ev.class,
			Attr: extract.NormalizeLabel(ev.attr), Value: ev.value,
			Source: ev.source, Doc: ev.doc,
		})
		return
	}
	cr := res.PerClass[ev.class]
	attr := extract.NormalizeLabel(ev.attr)
	if !cr.All.Has(attr) {
		cr.Discovered.Add(attr, ev.source)
		cr.All.Add(attr, ev.source)
	}
	res.Claims.Add(ev.entity, attr, ev.value, ev.source, ev.doc)
}

// SplitSentences segments text into sentences on ". " boundaries, keeping
// the final period with each sentence.
func SplitSentences(text string) []string {
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

// TokenizeSentence splits a sentence into tokens, separating "'s" clitics
// and the trailing period into their own tokens.
func TokenizeSentence(s string) []string {
	s = strings.ReplaceAll(s, "'s ", " 's ")
	if strings.HasSuffix(s, "'s") {
		s = s[:len(s)-2] + " 's"
	}
	if strings.HasSuffix(s, ".") {
		s = s[:len(s)-1] + " ."
	}
	return strings.Fields(s)
}

// phraseSet answers "which is the longest of these phrases mentioned in
// this sentence" in one pass over the sentence, however many phrases there
// are: every stretch of the sentence that starts and ends at a word
// boundary and is no longer than the longest phrase is looked up in a hash
// set. Testing each phrase against the sentence instead costs
// phrases × sentences substring searches, which is what made text
// extraction superlinear in the corpus scale. A phraseSet is read-only
// after construction and safe for concurrent use.
type phraseSet struct {
	phrases        map[string]struct{}
	minLen, maxLen int // byte lengths of the shortest and longest phrase
}

func newPhraseSet(phrases []string) *phraseSet {
	ps := &phraseSet{phrases: make(map[string]struct{}, len(phrases))}
	for _, p := range phrases {
		if p == "" {
			continue
		}
		if len(ps.phrases) == 0 || len(p) < ps.minLen {
			ps.minLen = len(p)
		}
		if len(p) > ps.maxLen {
			ps.maxLen = len(p)
		}
		ps.phrases[p] = struct{}{}
	}
	return ps
}

// longestIn returns the longest phrase that occurs in sent at word
// boundaries, the lexicographically smallest of them when several share
// that length, or "" when none occurs. A mention starts at the start of
// the sentence or after a space, and ends at the end of the sentence or
// before a space, period, comma or apostrophe (so "Paris." and "Paris's"
// both mention "Paris").
func (ps *phraseSet) longestIn(sent string) string {
	if len(ps.phrases) == 0 {
		return ""
	}
	best := ""
	for i := 0; i+ps.minLen <= len(sent); i++ {
		if i > 0 && sent[i-1] != ' ' {
			continue
		}
		// Longest first: the first hit is this position's longest, and
		// nothing shorter than the best so far can replace it.
		shortest := max(ps.minLen, len(best))
		for j := min(i+ps.maxLen, len(sent)); j >= i+shortest; j-- {
			if j < len(sent) && !endsWord(sent[j]) {
				continue
			}
			cand := sent[i:j]
			if _, ok := ps.phrases[cand]; !ok {
				continue
			}
			if len(cand) > len(best) || cand < best {
				best = cand
			}
			break
		}
	}
	return best
}

// endsWord reports whether c may directly follow a mention.
func endsWord(c byte) bool {
	return c == ' ' || c == '.' || c == ',' || c == '\''
}

// findSeedAttr returns the seed attribute mentioned in the sentence outside
// the entity span — the longest, then lexicographically smallest — or "".
func findSeedAttr(sent, entity string, seeds *phraseSet) string {
	return seeds.longestIn(strings.Replace(sent, entity, "", 1))
}

// abstractSentence turns a seed sentence into a token template by replacing
// the entity and attribute spans with slots and the longest remaining
// non-glue token run with the value slot.
func abstractSentence(sent, entity, attr string) (string, bool) {
	s := strings.Replace(sent, entity, slotE, 1)
	s = strings.Replace(s, attr, slotA, 1)
	toks := TokenizeSentence(s)
	// Find the longest run of non-glue, non-slot tokens.
	bestStart, bestLen := -1, 0
	curStart, curLen := -1, 0
	for i, t := range toks {
		lower := strings.ToLower(t)
		if t == slotE || t == slotA || glueWords[lower] {
			curStart, curLen = -1, 0
			continue
		}
		if curStart < 0 {
			curStart = i
		}
		curLen++
		if curLen > bestLen {
			bestStart, bestLen = curStart, curLen
		}
	}
	if bestStart < 0 {
		return "", false
	}
	out := make([]string, 0, len(toks)-bestLen+1)
	for i := 0; i < len(toks); i++ {
		if i == bestStart {
			out = append(out, slotV)
			i += bestLen - 1
			continue
		}
		if t := toks[i]; t == slotE || t == slotA {
			out = append(out, t)
		} else {
			out = append(out, strings.ToLower(t))
		}
	}
	// A usable template mentions all three slots.
	joined := strings.Join(out, " ")
	if !strings.Contains(joined, slotE) || !strings.Contains(joined, slotA) || !strings.Contains(joined, slotV) {
		return "", false
	}
	return joined, true
}

// template is a parsed token template.
type template struct {
	canon  string
	tokens []string
}

func parseTemplate(canon string) template {
	return template{canon: canon, tokens: strings.Fields(canon)}
}

// binding is a successful template match.
type binding struct {
	entity    string // resolved known entity ("" if unknown)
	rawEntity string // raw ⟨E⟩ span
	attr      string
	value     string
}

// matcher aligns templates against sentence tokens with backtracking. One
// matcher is reused across every (sentence, template) pair of a document:
// the slot bindings live in three fixed fields (sub-slices of the sentence
// tokens) instead of the per-call map[string][]string the first
// implementation allocated, so the matching hot path only allocates when a
// candidate binding actually completes.
type matcher struct {
	idx      *extract.EntityIndex
	discover bool

	tokens  []string // current template tokens
	toks    []string // current sentence tokens
	e, a, v []string // slot bindings (sub-slices of toks)

	out, unknown binding
	haveUnknown  bool
}

// match aligns one template against one sentence. Slots capture
// 1..maxSlotTokens tokens; literals compare case-insensitively. The ⟨E⟩
// binding must resolve against the entity index for a full match;
// otherwise the best-effort raw binding is returned with ok=true and
// entity=="" only when every other constraint holds.
func (m *matcher) match(tmpl template, toks []string) (binding, bool) {
	m.tokens, m.toks = tmpl.tokens, toks
	m.e, m.a, m.v = nil, nil, nil
	m.out, m.unknown = binding{}, binding{}
	m.haveUnknown = false
	if m.rec(0, 0) {
		return m.out, true
	}
	if m.haveUnknown {
		return m.unknown, true
	}
	return binding{}, false
}

// matchTemplate matches one template against one sentence with a fresh
// matcher; matchDoc reuses a matcher instead.
func matchTemplate(tmpl template, toks []string, idx *extract.EntityIndex, cfg Config) (binding, bool) {
	m := matcher{idx: idx, discover: cfg.DiscoverEntities}
	return m.match(tmpl, toks)
}

func (m *matcher) rec(ti, si int) bool {
	if ti == len(m.tokens) {
		if si != len(m.toks) {
			return false
		}
		if len(m.e) == 0 || len(m.a) == 0 || len(m.v) == 0 {
			return false
		}
		// Value spans never contain glue words; rejecting them forces
		// the backtracker to extend the attribute slot instead (e.g.
		// "country of origin" rather than value "origin of X").
		for _, vt := range m.v {
			if glueWords[strings.ToLower(vt)] {
				return false
			}
		}
		cand := binding{
			rawEntity: strings.Join(m.e, " "),
			attr:      strings.Join(m.a, " "),
			value:     strings.Join(m.v, " "),
		}
		if !extract.ValidAttributeLabel(extract.NormalizeLabel(cand.attr)) {
			return false
		}
		if _, known := m.idx.Class(cand.rawEntity); known {
			cand.entity = cand.rawEntity
			m.out = cand
			return true
		}
		if m.discover && isCapitalizedSpan(cand.rawEntity) && !m.haveUnknown {
			m.unknown = cand
			m.haveUnknown = true
		}
		return false
	}
	tok := m.tokens[ti]
	switch tok {
	case slotE, slotA, slotV:
		var slot *[]string
		switch tok {
		case slotE:
			slot = &m.e
		case slotA:
			slot = &m.a
		default:
			slot = &m.v
		}
		for n := 1; n <= maxSlotTokens && si+n <= len(m.toks); n++ {
			*slot = m.toks[si : si+n]
			if m.rec(ti+1, si+n) {
				return true
			}
		}
		*slot = nil
		return false
	default:
		if si >= len(m.toks) || !strings.EqualFold(m.toks[si], tok) {
			return false
		}
		return m.rec(ti+1, si+1)
	}
}

// isCapitalizedSpan accepts proper-noun spans: every word starts with an
// upper-case letter or digit, except lower-case connectors ("of", "the",
// "and") in the middle; the first and last word must be capitalised
// ("University of Enel 24" qualifies, "motto of University" does not).
func isCapitalizedSpan(s string) bool {
	words := strings.Fields(s)
	if len(words) == 0 {
		return false
	}
	capitalized := func(w string) bool {
		c := w[0]
		return c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	if !capitalized(words[0]) || !capitalized(words[len(words)-1]) {
		return false
	}
	if len(words) < 3 {
		return true
	}
	for _, w := range words[1 : len(words)-1] {
		if capitalized(w) {
			continue
		}
		switch w {
		case "of", "the", "and":
		default:
			return false
		}
	}
	return true
}
