// Package store turns a pipeline result into a servable knowledge base:
// an immutable, indexed snapshot of the fused triples with their
// confidences, support counts and hierarchy context.
//
// The pipeline (internal/core) ends where the paper's Figure 1 ends — an
// augmented KB in process memory — but the ROADMAP's north star is a
// system that answers queries long after the fusion run finished. Store
// is the bridge: it is built once from a *core.Result (or loaded from a
// snapshot written earlier), never mutated afterwards, and therefore safe
// for lock-free concurrent reads from any number of server goroutines.
//
// The facts are kept sorted in the canonical (entity, attribute, value,
// class) order, and that order is the first index: an entity's facts are
// one contiguous run of the array and an attribute's facts one run inside
// it, so by-entity and by-(entity, attribute) reads are a map probe, a
// short binary search and a copy. Three inverted indexes — by attribute,
// by class and by value — cover the patterns that name no entity; each
// keeps all its postings lists in one array. The by-value index is
// hierarchy-aware: a fact is indexed under its accepted value and under
// every generalisation of that value, so querying value=Australia also
// finds entities whose accepted birth place is Adelaide — the paper's
// hierarchical-value-space semantics carried through to serving.
package store

import (
	"slices"
	"sort"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/kb"
)

// Fact is one accepted (entity, attribute, value) triple of the fused KB,
// annotated with what a consumer needs to act on it: the fused belief,
// the number of supporting sources, the entity's class and the value's
// hierarchy ancestors. Field order is fixed by the snapshot codec.
type Fact struct {
	// Entity is the subject's surface name, e.g. "Film 12".
	Entity string `json:"entity"`
	// Class is the entity's ontology class; empty when the entity is not
	// covered by the ground-truth world (e.g. a discovered entity).
	Class string `json:"class,omitempty"`
	// Attr is the canonical attribute name.
	Attr string `json:"attr"`
	// Value is the accepted value's lexical form.
	Value string `json:"value"`
	// Confidence is the fusion method's belief that the value is true.
	Confidence float64 `json:"confidence"`
	// Sources is the number of sources that asserted the value.
	Sources int `json:"sources,omitempty"`
	// Ancestors are the value's hierarchy generalisations from immediate
	// parent to root, when the value participates in a hierarchy.
	Ancestors []string `json:"ancestors,omitempty"`
}

// Pattern selects facts. Empty fields are wildcards; set fields must all
// match. Value matches hierarchically by default: a fact matches when its
// accepted value equals Value or specialises it (Value is one of the
// fact's ancestors). Exact disables the hierarchy expansion so Value must
// match the accepted value verbatim — the semantics a join needs when a
// variable binding is substituted into the value position.
//
// Pattern is the one query currency of the read path: Lookup/LookupN/
// Iterate/Select on Store and Sharded, the /v1/query URL-parameter
// adapter in internal/serve, and every clause of a datalog query
// (internal/datalog) all speak it.
type Pattern struct {
	Entity string
	Attr   string
	Class  string
	Value  string
	// Exact requires Value to equal the fact's accepted value verbatim,
	// with no hierarchical generalisation match.
	Exact bool
}

// Store is the immutable, indexed snapshot. All methods are safe for
// unsynchronised concurrent use: nothing is written after New returns.
type Store struct {
	// facts is in canonical order without duplicate keys, so every
	// entity's facts are contiguous and ordered by attribute.
	facts []Fact

	byEntity map[string]span // entity → its run of facts
	byAttr   postings
	byClass  postings // facts with an empty class are not listed
	byValue  postings // a fact is listed under its value and each ancestor

	classes []string
}

// span is the half-open range [lo, hi) of positions in Store.facts.
type span struct{ lo, hi int32 }

// postings is one inverted index: key → ascending fact positions. Every
// list is a window of one shared arena, so an index is three allocations
// however many keys it holds.
type postings struct {
	list  map[string]int32 // key → list number
	off   []int32          // list i is arena[off[i]:off[i+1]]
	arena []int32
}

func (p *postings) of(key string) []int32 {
	i, ok := p.list[key]
	if !ok {
		return nil
	}
	return p.arena[p.off[i]:p.off[i+1]]
}

// postingsBuilder collects one index's (key, position) pairs in fact
// order and lays them out in a single count → prefix sum → fill pass: each
// key is hashed once per posting and no list is ever grown.
type postingsBuilder struct {
	list map[string]int32
	n    []int32 // postings per list
	key  []int32 // list number of every posting, in the order added
	pos  []int32 // fact position of every posting
	last int32   // list of the previous posting: runs of one key skip the hash
	prev string
}

func newPostingsBuilder(postings int) *postingsBuilder {
	return &postingsBuilder{
		list: make(map[string]int32),
		key:  make([]int32, 0, postings),
		pos:  make([]int32, 0, postings),
	}
}

func (b *postingsBuilder) add(key string, pos int32) {
	if len(b.key) == 0 || key != b.prev {
		i, ok := b.list[key]
		if !ok {
			i = int32(len(b.n))
			b.list[key] = i
			b.n = append(b.n, 0)
		}
		b.last, b.prev = i, key
	}
	b.n[b.last]++
	b.key = append(b.key, b.last)
	b.pos = append(b.pos, pos)
}

func (b *postingsBuilder) postings() postings {
	off := make([]int32, len(b.n)+1)
	for i, n := range b.n {
		off[i+1] = off[i] + n
	}
	arena := make([]int32, len(b.key))
	next := b.n // reused as each list's fill cursor
	copy(next, off)
	for j, i := range b.key {
		arena[next[i]] = b.pos[j]
		next[i]++
	}
	return postings{list: b.list, off: off, arena: arena}
}

// New builds a store over the facts. The input is copied, sorted into the
// canonical (entity, attr, value, class) order and deduplicated, so every
// lookup — indexed or scanned — returns facts in the same deterministic
// order.
func New(facts []Fact) *Store {
	fs := make([]Fact, len(facts))
	copy(fs, facts)
	return build(canonical(fs))
}

// canonical sorts fs in place into canonical order and drops facts that
// repeat an identity key; the first (highest-sorted) wins.
func canonical(fs []Fact) []Fact {
	sort.Slice(fs, func(i, j int) bool { return factLess(&fs[i], &fs[j]) })
	return slices.CompactFunc(fs, sameFactKey)
}

// build indexes facts that are already canonical — sorted, no duplicate
// keys — and takes ownership of the slice. It is the one index builder:
// New reaches it after copy, sort and dedup; the binary snapshot decoder
// (which verifies the order instead of re-establishing it) and Flatten
// reach it directly.
func build(facts []Fact) *Store {
	if facts == nil {
		facts = []Fact{} // Facts() is never nil, so the JSON codec writes [] for an empty store
	}
	s := &Store{facts: facts}
	attrs, classes, values := newPostingsBuilder(len(facts)), newPostingsBuilder(len(facts)), newPostingsBuilder(len(facts))
	entities := 0
	for i := range facts {
		f, pos := &facts[i], int32(i)
		if i == 0 || f.Entity != facts[i-1].Entity {
			entities++
		}
		attrs.add(f.Attr, pos)
		if f.Class != "" {
			classes.add(f.Class, pos)
		}
		values.add(f.Value, pos)
		for _, anc := range f.Ancestors {
			values.add(anc, pos)
		}
	}
	s.byAttr, s.byClass, s.byValue = attrs.postings(), classes.postings(), values.postings()

	s.byEntity = make(map[string]span, entities)
	for lo := 0; lo < len(facts); {
		hi := lo + 1
		for hi < len(facts) && facts[hi].Entity == facts[lo].Entity {
			hi++
		}
		s.byEntity[facts[lo].Entity] = span{int32(lo), int32(hi)}
		lo = hi
	}
	s.classes = make([]string, 0, len(s.byClass.list))
	for c := range s.byClass.list {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	return s
}

// FromResult snapshots a pipeline result: one fact per accepted truth of
// every fusion decision, annotated with the entity's class and the
// value's hierarchy ancestors from the result's world.
func FromResult(res *core.Result) *Store {
	return New(ResultFacts(res))
}

// ResultFacts extracts the fused facts of a pipeline result without
// building indexes — the shared input of FromResult and
// ShardedFromResult.
func ResultFacts(res *core.Result) []Fact {
	fused := res.Fused()
	if fused == nil {
		return nil
	}
	var facts []Fact
	for _, d := range fused.Decisions {
		entity := extract.AttrFromIRI(d.Item.Subject)
		attr := extract.AttrFromIRI(d.Item.Predicate)
		class := ""
		if res.World != nil {
			if e, ok := res.World.Entity(entity); ok {
				class = e.Class
			}
		}
		for _, tr := range d.Truths {
			sources := 0
			if vc := d.Item.Value(tr); vc != nil {
				sources = vc.SupportCount()
			}
			var anc []string
			if res.World != nil && res.World.Hier != nil {
				anc = res.World.Hier.Ancestors(tr.Value)
			}
			facts = append(facts, Fact{
				Entity:     entity,
				Class:      class,
				Attr:       attr,
				Value:      tr.Value,
				Confidence: d.Belief[tr.Key()],
				Sources:    sources,
				Ancestors:  anc,
			})
		}
	}
	return facts
}

// WorldFacts materialises a ground-truth world as store facts: one fact
// per true (entity, attribute, value) with full confidence and the
// value's hierarchy ancestors. It bypasses extraction and fusion, so
// benchmarks and load tests can build KB-scale stores in milliseconds —
// a store of *true* facts, shaped exactly like a fused one.
func WorldFacts(w *kb.World) []Fact {
	var facts []Fact
	for _, class := range w.Ontology.ClassNames() {
		for _, e := range w.EntitiesOf(class) {
			attrs := make([]string, 0, len(e.Values))
			for a := range e.Values {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			for _, a := range attrs {
				for _, v := range e.Values[a] {
					facts = append(facts, Fact{
						Entity:     e.Name,
						Class:      class,
						Attr:       a,
						Value:      v,
						Confidence: 1,
						Sources:    1,
						Ancestors:  w.Hier.Ancestors(v),
					})
				}
			}
		}
	}
	return facts
}

// FromWorld builds a store over a world's ground-truth facts; see
// WorldFacts.
func FromWorld(w *kb.World) *Store { return New(WorldFacts(w)) }

// Len returns the number of facts.
func (s *Store) Len() int { return len(s.facts) }

// EntityCount returns the number of distinct entities.
func (s *Store) EntityCount() int { return len(s.byEntity) }

// Classes returns the distinct entity classes in sorted order. The
// returned slice must not be modified.
func (s *Store) Classes() []string { return s.classes }

// Facts returns every fact in canonical order. The returned slice must
// not be modified.
func (s *Store) Facts() []Fact { return s.facts }

// entityRun returns the entity's facts as a window of s.facts.
func (s *Store) entityRun(id string) []Fact {
	sp := s.byEntity[id]
	return s.facts[sp.lo:sp.hi]
}

// attrRun narrows one entity's run to one attribute's facts: inside an
// entity the canonical order is by attribute, so they are contiguous.
func attrRun(run []Fact, attr string) []Fact {
	lo, end := 0, len(run)
	for lo < end {
		if mid := int(uint(lo+end) >> 1); run[mid].Attr < attr {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	hi := lo
	for hi < len(run) && run[hi].Attr == attr {
		hi++
	}
	return run[lo:hi]
}

// Entity returns every fact about the entity in canonical order, nil when
// the entity is unknown.
func (s *Store) Entity(id string) []Fact {
	return append([]Fact(nil), s.entityRun(id)...)
}

// Triples returns the accepted values for (entity, attr) — all of them,
// with confidences and ancestors, since multi-truth attributes accept
// several values at once.
func (s *Store) Triples(entity, attr string) []Fact {
	return append([]Fact(nil), attrRun(s.entityRun(entity), attr)...)
}

// cursor is how one pattern is read, and the FactCursor Select returns.
// A pattern that names an entity, or nothing at all, reads a contiguous
// run of the fact array (cand is nil, facts is the run). Any other walks
// one postings list (cand, positions into facts): the shortest of the
// lists of the fields the pattern sets, class before attribute before
// value on a tie. Every list is in ascending position order, so which one
// is walked changes the cost of a read and never its output. rest is what
// of the pattern that choice does not already guarantee.
type cursor struct {
	facts []Fact
	cand  []int32
	rest  Pattern
	pos   int
}

func (s *Store) cursor(q Pattern) cursor {
	c := cursor{rest: q}
	if q.Entity != "" {
		c.facts, c.rest.Entity = s.entityRun(q.Entity), ""
		if q.Attr != "" {
			c.facts, c.rest.Attr = attrRun(c.facts, q.Attr), ""
		}
		return c
	}
	// drop is the residual field the walked list makes redundant.
	var drop *string
	if q.Class != "" {
		c.cand, drop = s.byClass.of(q.Class), &c.rest.Class
	}
	if q.Attr != "" {
		if l := s.byAttr.of(q.Attr); drop == nil || len(l) < len(c.cand) {
			c.cand, drop = l, &c.rest.Attr
		}
	}
	if q.Value != "" {
		if l := s.byValue.of(q.Value); drop == nil || len(l) < len(c.cand) {
			c.cand, drop = l, &c.rest.Value
		}
	}
	if drop == nil {
		c.facts = s.facts
		return c
	}
	// The by-value postings already encode the hierarchy semantics (facts
	// are posted under their value and every ancestor), so no residual
	// value filter is needed — unless the pattern is Exact, where the
	// postings are a superset (they include specialisations) and the
	// verbatim check stays in the residual.
	if drop != &c.rest.Value || !q.Exact {
		*drop = ""
	}
	if c.cand != nil {
		c.facts = s.facts
	}
	return c
}

// size is the number of facts the cursor visits before filtering.
func (c *cursor) size() int {
	if c.cand != nil {
		return len(c.cand)
	}
	return len(c.facts)
}

// next returns the next matching fact in place — a pointer into the
// store's immutable fact array — or nil when the stream is exhausted.
func (c *cursor) next() *Fact {
	for n := c.size(); c.pos < n; {
		i := c.pos
		if c.cand != nil {
			i = int(c.cand[i])
		}
		c.pos++
		if f := &c.facts[i]; matches(f, &c.rest) {
			return f
		}
	}
	return nil
}

func (c *cursor) Next() (Fact, bool) {
	if f := c.next(); f != nil {
		return *f, true
	}
	return Fact{}, false
}

// Lookup answers a query by walking the entity's run or the shortest
// postings list the pattern's fields offer (see cursor), then filters on
// the remaining fields. Its output is always identical to Scan's; only the
// cost differs.
func (s *Store) Lookup(q Pattern) []Fact {
	out, _ := s.LookupN(q, 0)
	return out
}

// LookupN answers a query like Lookup but materialises at most limit
// facts (the first ones in canonical order) while still counting every
// match. limit <= 0 means unlimited. It backs the serving layer's
// result cap: the response needs only the first page plus the true
// total, so the tail is counted, never copied.
func (s *Store) LookupN(q Pattern, limit int) (out []Fact, total int) {
	c := s.cursor(q)
	if c.cand == nil && c.rest == (Pattern{}) {
		// The run is the answer.
		n := len(c.facts)
		if limit > 0 && limit < n {
			n = limit
		}
		return append(out, c.facts[:n]...), len(c.facts)
	}
	for f := c.next(); f != nil; f = c.next() {
		total++
		if limit <= 0 || len(out) < limit {
			out = append(out, *f)
		}
	}
	return out, total
}

// Scan answers a query by brute force over every fact. It is the
// reference semantics for Lookup — tests assert equivalence and the
// BenchmarkStoreLookup baseline measures the index advantage against it.
func (s *Store) Scan(q Pattern) []Fact {
	var out []Fact
	for i := range s.facts {
		if f := &s.facts[i]; matches(f, &q) {
			out = append(out, *f)
		}
	}
	return out
}

// Iterate streams the facts matching q — the same facts Lookup returns,
// in the same canonical order — into yield without materialising a
// result slice. Iteration stops early when yield returns false; the
// return value reports whether the walk ran to completion. It is the
// allocation-free read the datalog executor's index-nested-loop probes
// are built on: a probe per binding costs the walk and zero heap.
func (s *Store) Iterate(q Pattern, yield func(Fact) bool) bool {
	c := s.cursor(q)
	if c.cand == nil {
		for i := range c.facts {
			if f := &c.facts[i]; matches(f, &c.rest) && !yield(*f) {
				return false
			}
		}
		return true
	}
	for _, i := range c.cand {
		if f := &c.facts[i]; matches(f, &c.rest) && !yield(*f) {
			return false
		}
	}
	return true
}

// CountEstimate returns an upper bound on how many facts match q: the
// length of the run or postings list Lookup would walk — for a pattern
// without an entity, the shortest list among the fields it sets — or the
// store size for the wildcard pattern. No statistics catalog backs it: the
// indexes that answer the query are themselves the statistic, which is
// exactly what the datalog planner's greedy clause ordering needs
// (estimates that are free, deterministic and never stale).
func (s *Store) CountEstimate(q Pattern) int {
	c := s.cursor(q)
	return c.size()
}

// Select returns a pull cursor over the facts matching q, in canonical
// order — the same sequence Lookup materialises and Iterate pushes.
// Cursors let a consumer interleave several streams (the sharded store's
// k-way merge, the datalog executor's batch dispatcher) without buffering
// whole relations.
func (s *Store) Select(q Pattern) FactCursor {
	c := s.cursor(q)
	return &c
}

func matches(f *Fact, q *Pattern) bool {
	if q.Entity != "" && f.Entity != q.Entity {
		return false
	}
	if q.Attr != "" && f.Attr != q.Attr {
		return false
	}
	if q.Class != "" && f.Class != q.Class {
		return false
	}
	if q.Value != "" && f.Value != q.Value && (q.Exact || !slices.Contains(f.Ancestors, q.Value)) {
		return false
	}
	return true
}

func factLess(a, b *Fact) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Class < b.Class
}

func sameFactKey(a, b Fact) bool {
	return a.Entity == b.Entity && a.Attr == b.Attr && a.Value == b.Value && a.Class == b.Class
}
