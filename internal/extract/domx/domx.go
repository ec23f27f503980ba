// Package domx implements Algorithm 1 of the paper: attribute extraction
// from DOM trees. For each website, pages that contain a recognised entity
// node and at least one attribute label from the seed set induce tag-path
// patterns (the paths between the entity node and the seed label nodes,
// normalised of noisy tags). Other text nodes whose entity-relative tag path
// is similar to an induced pattern are recognised as new attribute labels
// and added to the seed set, which grows monotonically as sites are
// traversed. The extractor additionally pairs every recognised label with
// its adjacent value node to emit (entity, attribute, value) statements for
// the fusion phase.
//
// Because tag paths learned on one site do not transfer to pages with other
// styles and formats (the paper's motivating observation), patterns are
// induced per page and never reused across sites.
package domx

import (
	"context"
	"slices"
	"sort"
	"strings"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/htmldom"
	"akb/internal/mapreduce"
	"akb/internal/obs"
	"akb/internal/rdf"
	"akb/internal/webgen"
)

// Page is one web page as it was fetched: the extractor parses it when its
// site's turn comes and drops the tree when the site is done.
type Page struct {
	URL  string
	HTML string
}

// Site groups the pages of one website.
type Site struct {
	Host  string
	Class string
	Pages []Page
}

// FromWebgen adapts generated websites as extraction input.
func FromWebgen(sites []*webgen.Site) []Site {
	out := make([]Site, 0, len(sites))
	for _, s := range sites {
		site := Site{Host: s.Host, Class: s.Class, Pages: make([]Page, 0, len(s.Pages))}
		for _, p := range s.Pages {
			site.Pages = append(site.Pages, Page{URL: p.URL, HTML: p.HTML})
		}
		out = append(out, site)
	}
	return out
}

// Config controls Algorithm 1.
type Config struct {
	// SimilarityThreshold is the minimum tag-path similarity to an induced
	// pattern for a text node to be recognised as an attribute label.
	SimilarityThreshold float64
	// SeedCap stops traversing a site once the class's attribute set
	// reaches this size ("the algorithm turns to another Website when the
	// number of attributes reaches a certain threshold"). Zero disables it.
	SeedCap int
	// MaxPasses bounds the per-site fixpoint iteration.
	MaxPasses int
	// DiscoverEntities harvests candidate new entities from pages whose
	// entity node matches no known entity: the page's first body text node
	// is proposed as a new entity of the site's class, and attribute/value
	// pairs are extracted against the patterns induced on the site's
	// recognised pages (an extension of Algorithm 1 towards the paper's
	// joint entity-linking-and-discovery goal).
	DiscoverEntities bool
	// Workers bounds intra-extractor parallelism. Algorithm 1's seed set
	// grows monotonically across the sites of one class, so sites cannot
	// be processed independently — but classes can: sites are sharded by
	// class, each shard parses and extracts its sites serially in input
	// order, and shards execute concurrently. Results merge
	// deterministically, so output is byte-identical at any worker count.
	// <= 1 runs fully serial.
	Workers int
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{SimilarityThreshold: 0.9, MaxPasses: 3}
}

// ClassResult is the per-class outcome.
type ClassResult struct {
	Class string
	// All is the enriched attribute set (seeds plus discoveries).
	All extract.AttrSet
	// Discovered holds only the attributes not present in the seeds.
	Discovered extract.AttrSet
	// PagesUsed counts pages that induced at least one pattern.
	PagesUsed int
	// InducedPatterns counts distinct normalised patterns across pages.
	InducedPatterns int
}

// EntityFact is one extracted fact about a candidate new entity.
type EntityFact = extract.EntityFact

// Result is the extraction outcome.
type Result struct {
	PerClass map[string]*ClassResult
	// Claims are the counted (entity, attribute, value) claims with
	// per-site provenance, one statement per (claim, site): Claims.Len()
	// statements, made by AppendStatements.
	Claims *extract.Evidence
	score  func(support, sources int) float64
	// NewEntityFacts holds facts about unrecognised page entities when
	// Config.DiscoverEntities is set.
	NewEntityFacts []EntityFact
}

// AppendStatements appends the claims' statements to dst.
func (r *Result) AppendStatements(dst []rdf.Statement) []rdf.Statement {
	return r.Claims.AppendStatements(dst, extract.ExtractorDOM, r.score)
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

// shard is the unit of domx parallelism: all sites of one class, kept in
// input order, plus their original input indices so per-site output can be
// reassembled in the serial order.
type shard struct {
	class   string
	sites   []Site
	indices []int
}

// shardOut is one shard's complete, self-contained extraction outcome.
type shardOut struct {
	cr     *ClassResult
	claims *extract.Evidence
	// facts is aligned with shard.sites: the entity facts each site
	// produced, in that site's generation order.
	facts [][]EntityFact
}

// seenKey dedups (attribute, host, page) support counts without building a
// concatenated string key on every lookup.
type seenKey struct {
	label, host, url string
}

// shardByClass groups sites by class in class-first-appearance order.
func shardByClass(sites []Site) []shard {
	at := make(map[string]int)
	var out []shard
	for i, s := range sites {
		j, ok := at[s.Class]
		if !ok {
			j = len(out)
			at[s.Class] = j
			out = append(out, shard{class: s.Class})
		}
		out[j].sites = append(out[j].sites, s)
		out[j].indices = append(out[j].indices, i)
	}
	return out
}

// shardRun is the state of Algorithm 1 over one class's sites. All of it —
// attribute set, claims, dedup keys, the parser and its trees — is the
// shard's own: entities resolve to exactly one class, so no claim, host, or
// attribute set is ever shared between shards.
type shardRun struct {
	cfg    Config
	idx    *extract.EntityIndex
	cr     *ClassResult
	claims *extract.Evidence
	seen   map[seenKey]struct{} // (attr, host, url) dedup for support counts

	// parser owns the tree of the page in hand — with discovery on, of the
	// site's pages so far — and the numbers of the class's path steps: a
	// step means the same on all its sites.
	parser htmldom.Parser
	// patterns are the class's distinct normalised patterns, all sites so
	// far; entityPaths the paths from the root at which recognised pages
	// carried their entity node, used to locate candidate entity nodes on
	// unrecognised pages during discovery.
	patterns    htmldom.PatternSet
	entityPaths stepSeqs

	// The state of the site in hand, in arrays reused from site to site:
	// its recognised pages, their body texts, the texts' tag paths; its
	// unrecognised pages.
	pages   []pageState
	texts   []textState
	steps   []htmldom.Step
	unknown []unknownPage
	// Scratch of one page.
	known   []int // text indices
	cand    []int
	induced htmldom.PatternSet
	path    []htmldom.Step
}

// runShard executes Algorithm 1 serially over one class's sites, page bytes
// to claims.
func runShard(sh shard, idx *extract.EntityIndex, seeds map[string]extract.AttrSet, cfg Config) shardOut {
	seedSet := extract.NewAttrSet()
	if s, ok := seeds[sh.class]; ok {
		seedSet = s.Clone()
	}
	run := &shardRun{
		cfg: cfg, idx: idx,
		cr:     &ClassResult{Class: sh.class, All: seedSet, Discovered: extract.NewAttrSet()},
		claims: extract.NewEvidence(),
		seen:   make(map[seenKey]struct{}),
	}
	facts := make([][]EntityFact, len(sh.sites))
	for i, site := range sh.sites {
		if cfg.SeedCap > 0 && run.cr.All.Len() >= cfg.SeedCap {
			continue
		}
		facts[i] = run.extractSite(site)
	}
	run.cr.InducedPatterns = run.patterns.Len()
	return shardOut{cr: run.cr, claims: run.claims, facts: facts}
}

// Extract runs Algorithm 1 over the sites. Seeds map class name to the seed
// attribute set extracted from the query stream and existing KBs; the passed
// sets are cloned, never mutated.
func Extract(ctx context.Context, sites []Site, idx *extract.EntityIndex, seeds map[string]extract.AttrSet, cfg Config, crit *confidence.Criterion) *Result {
	if cfg.SimilarityThreshold <= 0 {
		cfg.SimilarityThreshold = 0.9
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 3
	}
	res := &Result{PerClass: make(map[string]*ClassResult), Claims: extract.NewEvidence(), score: crit.ScoreFunc(extract.ExtractorDOM)}
	shards := shardByClass(sites)
	outs := mapreduce.Map(mapreduce.Config{Workers: max(cfg.Workers, 1), Obs: obs.Reg(ctx)},
		shards, func(sh shard) shardOut { return runShard(sh, idx, seeds, cfg) })
	factsBySite := make([][]EntityFact, len(sites))
	for s, out := range outs { // outs[s] aligns with shards[s]
		res.PerClass[out.cr.Class] = out.cr
		res.Claims.Merge(out.claims)
		for k, fs := range out.facts {
			factsBySite[shards[s].indices[k]] = fs
		}
	}
	// Reassembling facts by original site index reproduces the serial
	// site-by-site append order exactly.
	for _, fs := range factsBySite {
		res.NewEntityFacts = append(res.NewEntityFacts, fs...)
	}
	if crit != nil {
		for _, cr := range res.PerClass {
			crit.ScoreAttrSet(extract.ExtractorDOM, cr.Discovered)
			crit.ScoreAttrSet(extract.ExtractorDOM, cr.All)
		}
	}
	res.Claims.Count()
	reg := obs.Reg(ctx)
	reg.Counter("akb_domx_statements_total").Add(int64(res.Claims.Len()))
	discovered := 0
	for _, cr := range res.PerClass {
		discovered += cr.Discovered.Len()
	}
	reg.Counter("akb_domx_attrs_discovered_total").Add(int64(discovered))
	return res
}

// pageState is one recognised page of the site in hand: its entity and
// where its texts' state is. Nothing here points into the page's tree.
type pageState struct {
	url      string
	entity   string
	entLower string
	lo, hi   int // the page's body texts are shardRun.texts[lo:hi]
	// entityPath is where in the template the entity node stands: its
	// ancestors' steps, shardRun.steps[entityPath.lo:entityPath.hi].
	entityPath span
	counted    bool
}

// span is a run of shardRun.steps.
type span struct{ lo, hi int32 }

// textState is one body text node of a recognised page with the derivations
// the fixpoint passes need. They are pure functions of the page, so they are
// made once, while the page's tree is there, and passes 2..MaxPasses reuse
// them instead of re-normalising text and re-walking the DOM — the dominant
// cost of the original per-pass recomputation.
type textState struct {
	norm  string // NormalizeSpace of the node's text
	label string // NormalizeLabel(norm)
	// valid: the label could name an attribute (ValidAttributeLabel).
	valid bool
	// path is the tag path from the page's entity node to this one, its apex
	// at steps[path.lo+apex]; the entity's own text and a text without a
	// label have none.
	path span
	apex int32
	// value is the adjacent value for the label here, found on first use.
	value     string
	valueDone bool
}

// pathOf returns the tag path to a text of the site in hand.
func (r *shardRun) pathOf(t *textState) htmldom.Path {
	return htmldom.Path{Steps: r.steps[t.path.lo:t.path.hi], Apex: int(t.apex)}
}

// valueAt returns the adjacent value for the label at position i of a page's
// texts, looking for it once.
func valueAt(texts []textState, i int) string {
	t := &texts[i]
	if !t.valueDone {
		t.valueDone = true
		for j := i + 1; j < len(texts); j++ {
			raw := texts[j].norm
			if raw == "" {
				continue
			}
			if !strings.HasSuffix(raw, ":") {
				t.value = raw
			}
			break // adjacent label: the expected value is missing
		}
	}
	return t.value
}

// extractSite runs the fixpoint passes over the site's pages with a
// recognised entity, and harvests the others when discovery is on. A page is
// parsed, read into the site's state and dropped: the passes work on that
// state. Only discovery goes back to trees — of the unrecognised pages — so
// with it on the site's trees stay until the site is done.
func (r *shardRun) extractSite(site Site) []EntityFact {
	clear(r.texts) // the last site's strings
	clear(r.unknown)
	r.pages, r.texts, r.steps, r.unknown = r.pages[:0], r.texts[:0], r.steps[:0], r.unknown[:0]
	for i, p := range site.Pages {
		if i == 0 || !r.cfg.DiscoverEntities {
			r.parser.Reset()
		}
		r.readPage(site, p)
	}

	for pass := 0; pass < r.cfg.MaxPasses; pass++ {
		grew := false
		for i := range r.pages {
			if r.cfg.SeedCap > 0 && r.cr.All.Len() >= r.cfg.SeedCap {
				return nil
			}
			if r.extractPage(site, &r.pages[i]) {
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	if r.cfg.DiscoverEntities {
		return r.discoverOnSite(site)
	}
	return nil
}

// readPage parses a page and, if one of its texts names an entity of the
// site's class, adds to the site's state what the passes ask of it: every
// body text normalised and as a label, and its tag path from the entity
// node.
func (r *shardRun) readPage(site Site, p Page) {
	doc := r.parser.Parse(p.HTML)
	st := pageState{url: p.URL, lo: len(r.texts)}
	var eNode *htmldom.Node
	for _, tn := range doc.Texts {
		name := htmldom.NormalizeSpace(tn.Text)
		if c, ok := r.idx.Class(name); ok && c == site.Class {
			st.entity, eNode = name, tn
			break
		}
	}
	if eNode == nil {
		if r.cfg.DiscoverEntities {
			r.unknown = append(r.unknown, unknownPage{url: p.URL, texts: doc.Texts})
		}
		return
	}
	st.entLower = strings.ToLower(st.entity)
	for _, tn := range doc.Texts {
		t := textState{norm: htmldom.NormalizeSpace(tn.Text)}
		t.label = extract.NormalizeLabel(t.norm)
		t.valid = extract.ValidAttributeLabel(t.label)
		if tn != eNode && t.label != "" {
			if path, ok := htmldom.PathBetween(eNode, tn, r.path); ok {
				r.path = path.Steps
				t.path, t.apex = r.keep(path.Steps), int32(path.Apex)
			}
		}
		r.texts = append(r.texts, t)
	}
	r.path = htmldom.AncestorSteps(eNode, r.path)
	st.entityPath = r.keep(r.path)
	st.hi = len(r.texts)
	r.pages = append(r.pages, st)
}

// keep copies steps into the site's array.
func (r *shardRun) keep(steps []htmldom.Step) span {
	lo := len(r.steps)
	r.steps = append(r.steps, steps...)
	return span{int32(lo), int32(len(r.steps))}
}

// discoverOnSite proposes new entities from the site's pages whose entity
// node matched nothing known, extracting their attributes against the
// class's induced pattern set. Site templates keep label paths regular across
// pages, which is what makes cross-page pattern application sound here even
// though Algorithm 1 proper induces patterns per page.
func (r *shardRun) discoverOnSite(site Site) []EntityFact {
	if r.patterns.Len() == 0 {
		return nil
	}
	var facts []EntityFact
	for _, p := range r.unknown {
		// The candidate entity node is the first text node standing at a
		// position where recognised pages carried their entity node — nav
		// links and ads live elsewhere in the template.
		var candNode *htmldom.Node
		for _, tn := range p.texts {
			r.path = htmldom.AncestorSteps(tn, r.path)
			if r.entityPaths.has(r.path) {
				candNode = tn
				break
			}
		}
		if candNode == nil {
			continue
		}
		name := htmldom.NormalizeSpace(candNode.Text)
		if !plausibleEntityName(name) {
			continue
		}
		for i, tn := range p.texts {
			if tn == candNode {
				continue
			}
			label := extract.NormalizeLabel(htmldom.NormalizeSpace(tn.Text))
			if label == "" || !extract.ValidAttributeLabel(label) {
				continue
			}
			path, ok := htmldom.PathBetween(candNode, tn, r.path)
			if !ok {
				continue
			}
			r.path = path.Steps
			if r.patterns.BestSimilarity(path) < r.cfg.SimilarityThreshold {
				continue
			}
			value := valueAfter(p.texts, i)
			if value == "" {
				continue
			}
			facts = append(facts, EntityFact{
				Name: name, Class: site.Class, Attr: label, Value: value,
				Source: site.Host, Doc: p.url,
			})
		}
	}
	return facts
}

// unknownPage is a page of the site in hand on which no known entity was
// found.
type unknownPage struct {
	url   string
	texts []*htmldom.Node
}

// stepSeqs is a small set of step sequences, searched in order.
type stepSeqs struct {
	steps []htmldom.Step
	ends  []int
}

func (s *stepSeqs) has(seq []htmldom.Step) bool {
	start := 0
	for _, end := range s.ends {
		if slices.Equal(s.steps[start:end], seq) {
			return true
		}
		start = end
	}
	return false
}

func (s *stepSeqs) add(seq []htmldom.Step) {
	if !s.has(seq) {
		s.steps = append(s.steps, seq...)
		s.ends = append(s.ends, len(s.steps))
	}
}

// plausibleEntityName accepts capitalised multi-word names of sane length.
func plausibleEntityName(name string) bool {
	words := strings.Fields(name)
	if len(words) == 0 || len(words) > 8 || len(name) < 3 {
		return false
	}
	c := name[0]
	return c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// extractPage runs one Algorithm-1 step on a page and reports whether the
// class attribute set grew.
func (r *shardRun) extractPage(site Site, st *pageState) bool {
	cr, texts := r.cr, r.texts[st.lo:st.hi]
	// Step 1: induced tag path pattern set — paths from the entity node to
	// every node whose label is already a known attribute. The known /
	// candidate partition depends on the growing attribute set, so it is
	// recomputed per pass — into reused buffers.
	known, candidates := r.known[:0], r.cand[:0]
	for i := range texts {
		t := &texts[i]
		if t.path.hi == t.path.lo || t.label == st.entLower {
			continue // the entity node, a text without a label, the name again
		}
		if cr.All.Has(t.label) {
			known = append(known, i)
		} else if t.valid {
			candidates = append(candidates, i)
		}
	}
	r.known, r.cand = known, candidates
	if len(known) == 0 {
		return false
	}
	r.induced.Reset()
	for _, i := range known {
		// The rows of an infobox share one path: the class's set is asked
		// only about a pattern new to the page.
		if path := r.pathOf(&texts[i]); r.induced.Add(path) {
			r.patterns.Add(path)
		}
	}
	if !st.counted {
		cr.PagesUsed++
		st.counted = true
	}
	r.entityPaths.add(r.steps[st.entityPath.lo:st.entityPath.hi])

	grew := false
	// Step 2: recognise known labels' values and new attribute labels.
	emit := func(pos int) {
		if value := valueAt(texts, pos); value != "" {
			r.claims.Add(st.entity, texts[pos].label, value, site.Host, st.url)
		}
	}
	for _, i := range known {
		label := texts[i].label
		// A previously discovered attribute reappearing on another page or
		// host is further evidence; keep its support growing.
		if cr.Discovered.Has(label) {
			key := seenKey{label: label, host: site.Host, url: st.url}
			if _, dup := r.seen[key]; !dup {
				r.seen[key] = struct{}{}
				cr.Discovered.Add(label, site.Host)
				cr.All.Add(label, site.Host)
			}
		}
		emit(i)
	}
	for _, i := range candidates {
		if r.induced.BestSimilarity(r.pathOf(&texts[i])) < r.cfg.SimilarityThreshold {
			continue
		}
		label := texts[i].label
		key := seenKey{label: label, host: site.Host, url: st.url}
		if _, dup := r.seen[key]; !dup {
			r.seen[key] = struct{}{}
			if !cr.All.Has(label) {
				grew = true
			}
			cr.All.Add(label, site.Host)
			cr.Discovered.Add(label, site.Host)
		}
		emit(i)
	}
	return grew
}

// valueAfter returns the normalised text of the first node after pos that
// does not itself look like a label (labels end with a colon on styled
// sites).
func valueAfter(texts []*htmldom.Node, pos int) string {
	for i := pos + 1; i < len(texts); i++ {
		raw := htmldom.NormalizeSpace(texts[i].Text)
		if raw == "" {
			continue
		}
		if strings.HasSuffix(raw, ":") {
			return "" // adjacent label: the expected value is missing
		}
		return raw
	}
	return ""
}
