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

// Page is one parsed web page.
type Page struct {
	URL string
	Doc *htmldom.Node
}

// Site groups the parsed pages of one website.
type Site struct {
	Host  string
	Class string
	Pages []Page
}

// FromWebgen parses generated websites into extraction input.
func FromWebgen(sites []*webgen.Site) []Site {
	out := make([]Site, 0, len(sites))
	for _, s := range sites {
		site := Site{Host: s.Host, Class: s.Class}
		for _, p := range s.Pages {
			site.Pages = append(site.Pages, Page{URL: p.URL, Doc: htmldom.Parse(p.HTML)})
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
	// Step renders tag-path steps; defaults to htmldom.QualifiedStep.
	Step htmldom.StepFunc
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
	// class, each shard runs serially in input order, and shards execute
	// concurrently. Results merge deterministically, so output is
	// byte-identical at any worker count. <= 1 runs fully serial.
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

	patternSet map[string]struct{}
	// entityPaths records the qualified path-to-root signatures of entity
	// nodes on recognised pages, used to locate candidate entity nodes on
	// unrecognised pages during discovery.
	entityPaths map[string]struct{}
}

// EntityFact is one extracted fact about a candidate new entity.
type EntityFact = extract.EntityFact

// Result is the extraction outcome.
type Result struct {
	PerClass map[string]*ClassResult
	// Statements are the (entity, attribute, value) claims with
	// per-site provenance.
	Statements []rdf.Statement
	// NewEntityFacts holds facts about unrecognised page entities when
	// Config.DiscoverEntities is set.
	NewEntityFacts []EntityFact
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

// shardOut is one shard's complete, self-contained extraction state.
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

// runShard executes Algorithm 1 serially over one class's sites. All
// mutable state (attribute set, claims, dedup keys) is shard-local:
// entities resolve to exactly one class, so no claim, host, or attribute
// set is ever shared between shards.
func runShard(sh shard, idx *extract.EntityIndex, seeds map[string]extract.AttrSet, cfg Config) shardOut {
	seedSet := extract.NewAttrSet()
	if s, ok := seeds[sh.class]; ok {
		seedSet = s.Clone()
	}
	out := shardOut{
		cr: &ClassResult{
			Class:       sh.class,
			All:         seedSet,
			Discovered:  extract.NewAttrSet(),
			patternSet:  make(map[string]struct{}),
			entityPaths: make(map[string]struct{}),
		},
		claims: extract.NewEvidence(),
		facts:  make([][]EntityFact, len(sh.sites)),
	}
	seen := make(map[seenKey]struct{}) // (attr, host, url) dedup for support counts
	var scratch pageScratch
	for i, site := range sh.sites {
		if cfg.SeedCap > 0 && out.cr.All.Len() >= cfg.SeedCap {
			continue
		}
		out.facts[i] = extractSite(site, idx, out.cr, cfg, out.claims, seen, &scratch)
	}
	return out
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
	if cfg.Step == nil {
		cfg.Step = htmldom.QualifiedStep
	}
	res := &Result{PerClass: make(map[string]*ClassResult)}
	shards := shardByClass(sites)
	outs := mapreduce.Map(mapreduce.Config{Workers: max(cfg.Workers, 1), Obs: obs.Reg(ctx)},
		shards, func(sh shard) shardOut { return runShard(sh, idx, seeds, cfg) })
	factsBySite := make([][]EntityFact, len(sites))
	claims := extract.NewEvidence()
	for s, out := range outs { // outs[s] aligns with shards[s]
		res.PerClass[out.cr.Class] = out.cr
		claims.Merge(out.claims)
		for k, fs := range out.facts {
			factsBySite[shards[s].indices[k]] = fs
		}
	}
	// Reassembling facts by original site index reproduces the serial
	// site-by-site append order exactly.
	for _, fs := range factsBySite {
		res.NewEntityFacts = append(res.NewEntityFacts, fs...)
	}
	for _, cr := range res.PerClass {
		cr.InducedPatterns = len(cr.patternSet)
		if crit != nil {
			crit.ScoreAttrSet(extract.ExtractorDOM, cr.Discovered)
			crit.ScoreAttrSet(extract.ExtractorDOM, cr.All)
		}
	}
	res.Statements = claims.Statements(extract.ExtractorDOM, crit.ScoreFunc(extract.ExtractorDOM))
	reg := obs.Reg(ctx)
	reg.Counter("akb_domx_statements_total").Add(int64(len(res.Statements)))
	discovered := 0
	for _, cr := range res.PerClass {
		discovered += cr.Discovered.Len()
	}
	reg.Counter("akb_domx_attrs_discovered_total").Add(int64(discovered))
	return res
}

// pageState is one recognised page plus every per-text derivation the
// fixpoint passes need. All cached fields are pure functions of the page
// and its entity node, so passes 2..MaxPasses reuse them instead of
// re-normalising text and re-walking the DOM — the dominant cost of the
// original per-pass recomputation.
type pageState struct {
	page     Page
	entity   string
	entLower string
	eNode    *htmldom.Node
	texts    []*htmldom.Node
	norm     []string // NormalizeSpace(texts[i].Text)
	label    []string // NormalizeLabel(norm[i])
	// Lazy caches, filled on first use: the entity-relative tag path per
	// text node, its normalised pattern (and canonical string), and the
	// adjacent value per position.
	path         []htmldom.TagPath
	pathOK       []bool
	pathDone     []bool
	normPath     []htmldom.TagPath
	normPathStr  []string
	normPathDone []bool
	value        []string
	valueDone    []bool
	counted      bool
}

// pathTo returns the cached tag path from the entity node to texts[i].
func (st *pageState) pathTo(i int, step htmldom.StepFunc) (htmldom.TagPath, bool) {
	if !st.pathDone[i] {
		st.pathDone[i] = true
		st.path[i], st.pathOK[i] = htmldom.PathBetweenFunc(st.eNode, st.texts[i], step)
	}
	return st.path[i], st.pathOK[i]
}

// normPathAt returns the cached normalised pattern (and its canonical
// string) of the path to texts[i]; ok mirrors pathTo.
func (st *pageState) normPathAt(i int, step htmldom.StepFunc) (htmldom.TagPath, string, bool) {
	if !st.normPathDone[i] {
		st.normPathDone[i] = true
		if p, ok := st.pathTo(i, step); ok {
			st.normPath[i] = p.Normalize()
			st.normPathStr[i] = st.normPath[i].String()
		}
	}
	_, ok := st.pathTo(i, step)
	return st.normPath[i], st.normPathStr[i], ok
}

// valueAt returns the cached adjacent value for the label at position i.
func (st *pageState) valueAt(i int) string {
	if !st.valueDone[i] {
		st.valueDone[i] = true
		for j := i + 1; j < len(st.texts); j++ {
			raw := st.norm[j]
			if raw == "" {
				continue
			}
			if !strings.HasSuffix(raw, ":") {
				st.value[i] = raw
			}
			break // adjacent label: the expected value is missing
		}
	}
	return st.value[i]
}

// pageScratch holds per-shard reusable buffers for extractPage, so the
// per-pass known/candidate partitions and the prepared pattern set stop
// allocating on every (page, pass) visit.
type pageScratch struct {
	known, cand []int // text indices
	patterns    htmldom.PatternSet
}

func extractSite(site Site, idx *extract.EntityIndex, cr *ClassResult, cfg Config, claims *extract.Evidence, seen map[seenKey]struct{}, scratch *pageScratch) []EntityFact {
	states := make([]*pageState, 0, len(site.Pages))
	var unknown []Page
	for _, p := range site.Pages {
		// One traversal serves both entity recognition and label caching.
		texts := bodyTextNodes(p.Doc)
		norm := make([]string, len(texts))
		for i, tn := range texts {
			norm[i] = htmldom.NormalizeSpace(tn.Text)
		}
		entity := ""
		var eNode *htmldom.Node
		for i, tn := range texts {
			if c, ok := idx.Class(norm[i]); ok && c == site.Class {
				entity, eNode = norm[i], tn
				break
			}
		}
		if eNode == nil {
			unknown = append(unknown, p)
			continue
		}
		n := len(texts)
		st := &pageState{
			page: p, entity: entity, entLower: strings.ToLower(entity),
			eNode: eNode, texts: texts, norm: norm,
			label:    make([]string, n),
			path:     make([]htmldom.TagPath, n),
			pathOK:   make([]bool, n),
			pathDone: make([]bool, n),
			normPath: make([]htmldom.TagPath, n), normPathStr: make([]string, n), normPathDone: make([]bool, n),
			value: make([]string, n), valueDone: make([]bool, n),
		}
		for i := range texts {
			st.label[i] = extract.NormalizeLabel(norm[i])
		}
		states = append(states, st)
	}

	for pass := 0; pass < cfg.MaxPasses; pass++ {
		grew := false
		for _, st := range states {
			if cfg.SeedCap > 0 && cr.All.Len() >= cfg.SeedCap {
				return nil
			}
			if extractPage(site, st, cr, cfg, claims, seen, scratch) {
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	if cfg.DiscoverEntities {
		return discoverOnSite(site, unknown, cr, cfg, &scratch.patterns)
	}
	return nil
}

// discoverOnSite proposes new entities from pages whose entity node matched
// nothing known, extracting their attributes against the site's induced
// pattern set. Site templates keep label paths regular across pages, which
// is what makes cross-page pattern application sound here even though
// Algorithm 1 proper induces patterns per page.
func discoverOnSite(site Site, unknown []Page, cr *ClassResult, cfg Config, sitePatterns *htmldom.PatternSet) []EntityFact {
	if len(cr.patternSet) == 0 {
		return nil
	}
	var facts []EntityFact
	sitePatterns.Reset()
	for st := range cr.patternSet {
		sitePatterns.Add(parsePatternKey(st))
	}
	for _, p := range unknown {
		texts := bodyTextNodes(p.Doc)
		// The candidate entity node is the first text node standing at a
		// position where recognised pages carried their entity node — nav
		// links and ads live elsewhere in the template.
		var candNode *htmldom.Node
		for _, tn := range texts {
			if _, ok := cr.entityPaths[pathSignature(tn, cfg.Step)]; ok {
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
		for i, tn := range texts {
			if tn == candNode {
				continue
			}
			label := extract.NormalizeLabel(htmldom.NormalizeSpace(tn.Text))
			if label == "" || !extract.ValidAttributeLabel(label) {
				continue
			}
			path, ok := htmldom.PathBetweenFunc(candNode, tn, cfg.Step)
			if !ok || sitePatterns.BestSimilarity(path) < cfg.SimilarityThreshold {
				continue
			}
			value := valueAfter(texts, i)
			if value == "" {
				continue
			}
			facts = append(facts, EntityFact{
				Name: name, Class: site.Class, Attr: label, Value: value,
				Source: site.Host, Doc: p.URL,
			})
		}
	}
	return facts
}

// pathSignature renders a text node's qualified element path to the root,
// most specific first, as a comparable string.
func pathSignature(n *htmldom.Node, step htmldom.StepFunc) string {
	var b strings.Builder
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind == htmldom.ElementNode {
			b.WriteString(step(cur))
			b.WriteByte('/')
		}
	}
	return b.String()
}

// parsePatternKey reconstructs a TagPath from its canonical string
// "a^b^apex(c/d)".
func parsePatternKey(s string) htmldom.TagPath {
	var p htmldom.TagPath
	if i := strings.IndexByte(s, '('); i >= 0 {
		down := strings.TrimSuffix(s[i+1:], ")")
		if down != "" {
			p.Down = strings.Split(down, "/")
		}
		s = s[:i]
	}
	parts := strings.Split(s, "^")
	p.Apex = parts[len(parts)-1]
	p.Up = parts[:len(parts)-1]
	return p
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
func extractPage(site Site, st *pageState, cr *ClassResult, cfg Config, claims *extract.Evidence, seen map[seenKey]struct{}, scratch *pageScratch) bool {
	// Step 1: induced tag path pattern set — paths from the entity node to
	// every node whose label is already a known attribute. The known /
	// candidate partition depends on the growing attribute set, so it is
	// recomputed per pass — into reused scratch buffers.
	known := scratch.known[:0]
	candidates := scratch.cand[:0]
	for i, tn := range st.texts {
		if tn == st.eNode {
			continue
		}
		label := st.label[i]
		if label == "" || label == st.entLower {
			continue
		}
		if cr.All.Has(label) {
			known = append(known, i)
		} else {
			candidates = append(candidates, i)
		}
	}
	scratch.known, scratch.cand = known, candidates
	if len(known) == 0 {
		return false
	}
	induced := &scratch.patterns
	induced.Reset()
	for _, i := range known {
		if norm, str, ok := st.normPathAt(i, cfg.Step); ok {
			induced.Add(norm)
			cr.patternSet[str] = struct{}{}
		}
	}
	if induced.Len() == 0 {
		return false
	}
	if !st.counted {
		cr.PagesUsed++
		st.counted = true
	}
	cr.entityPaths[pathSignature(st.eNode, cfg.Step)] = struct{}{}

	grew := false
	// Step 2: recognise known labels' values and new attribute labels.
	emit := func(pos int) {
		value := st.valueAt(pos)
		if value == "" {
			return
		}
		claims.Add(st.entity, st.label[pos], value, site.Host, st.page.URL)
	}
	for _, i := range known {
		label := st.label[i]
		// A previously discovered attribute reappearing on another page or
		// host is further evidence; keep its support growing.
		if cr.Discovered.Has(label) {
			key := seenKey{label: label, host: site.Host, url: st.page.URL}
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				cr.Discovered.Add(label, site.Host)
				cr.All.Add(label, site.Host)
			}
		}
		emit(i)
	}
	for _, i := range candidates {
		label := st.label[i]
		if !extract.ValidAttributeLabel(label) {
			continue
		}
		p, ok := st.pathTo(i, cfg.Step)
		if !ok {
			continue
		}
		if induced.BestSimilarity(p) < cfg.SimilarityThreshold {
			continue
		}
		key := seenKey{label: label, host: site.Host, url: st.page.URL}
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
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

// findEntityNode locates the first body text node whose content is a known
// entity of the wanted class.
func findEntityNode(doc *htmldom.Node, idx *extract.EntityIndex, class string) (string, *htmldom.Node) {
	for _, tn := range bodyTextNodes(doc) {
		name := htmldom.NormalizeSpace(tn.Text)
		if c, ok := idx.Class(name); ok && c == class {
			return name, tn
		}
	}
	return "", nil
}

// bodyTextNodes returns document-order text nodes outside <head>.
func bodyTextNodes(doc *htmldom.Node) []*htmldom.Node {
	var out []*htmldom.Node
	for _, tn := range doc.TextNodes() {
		if !underHead(tn) {
			out = append(out, tn)
		}
	}
	return out
}

func underHead(n *htmldom.Node) bool {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind == htmldom.ElementNode && cur.Tag == "head" {
			return true
		}
	}
	return false
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
