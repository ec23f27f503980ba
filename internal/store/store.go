// Package store turns a pipeline result into a servable knowledge base:
// an immutable, indexed snapshot of the fused triples with their
// confidences, support counts and hierarchy context.
//
// The pipeline (internal/core) ends where the paper's Figure 1 ends — an
// augmented KB in process memory — but the ROADMAP's north star is a
// system that answers queries long after the fusion run finished. The
// store is the bridge: it is built once from the facts of a *core.Result
// (or loaded from a snapshot written earlier), never mutated afterwards,
// and therefore safe for lock-free concurrent reads from any number of
// server goroutines.
//
// There is one store type, Sharded: the facts partitioned by entity hash
// into n independently indexed shards, read through one primitive — Select
// opens a Cursor over the facts matching a Pattern — plus CountEstimate,
// the free selectivity bound the indexes give (see Querier). A flat store
// is the one-shard case, not another implementation. A cursor also knows
// where it is: it hands out the run of the entity whose fact it last
// yielded, and the run can be read again by number (Run.Where) without going
// back through the store — a join on the entity.
//
// Inside a shard the facts are kept sorted in the canonical (entity,
// attribute, value, class) order, and that order is the first index: an
// entity's facts are one contiguous run of fact positions and an attribute's
// facts one run inside it, so by-entity and by-(entity, attribute) reads are
// a binary search of the runs' entity IDs and a scan of the run's attribute
// numbers. A shard holds no Fact: it is its columns — each run's entity ID,
// each fact's attribute and class numbers, value ID, confidence, source count
// and window of value postings — and a Fact is made from them only when it
// leaves the store (Cursor.Fact, Lookup). A scan, a read's per-fact checks
// and the merge of the shards' streams compare integers where the order is
// one of strings, and a reader that joins on numbers (Cursor.IDs, Names)
// reads a fact without its strings.
// Three inverted indexes — by attribute, by class and by value — cover the
// patterns that name no entity; each keeps all its postings lists in one
// array. The
// by-value index is hierarchy-aware: a fact is indexed under its accepted
// value and under every generalisation of that value, so querying
// value=Australia also finds entities whose accepted birth place is
// Adelaide — the paper's hierarchical-value-space semantics carried
// through to serving.
//
// The store numbers its strings once. It holds the sorted table of every
// distinct string it contains — the file's own when it was decoded from a
// snapshot, numbered at construction when NewSharded built it — and one
// open-addressed name → ID table over it. A read finds each name of its
// pattern there once, however many shards it opens; below that everything is
// keyed by number: a shard's runs by their entity IDs, each index's lists by
// their key IDs (an integer probe, no string hashed), and no index holds a
// string-keyed map. The columns and each index's list number → string ID are
// also what the snapshot writer encodes instead of the strings.
package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/hierarchy"
	"akb/internal/kb"
	"akb/internal/mapreduce"
	"akb/internal/rdf"
)

// Fact is one accepted (entity, attribute, value) triple of the fused KB,
// annotated with what a consumer needs to act on it: the fused belief,
// the number of supporting sources, the entity's class and the value's
// hierarchy ancestors. Field order is the one the API's JSON responses
// carry (internal/serve).
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
// Pattern is the one query currency of the read path: Querier.Select and
// CountEstimate, Lookup and LookupN over them, the /v1/query URL-parameter
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

// DefaultShards is the shard count NewSharded uses when the caller does
// not pick one. Eight shards keep per-shard indexes small enough to
// stay cache-friendly while giving the scatter-gather path real
// parallelism headroom on typical server core counts.
const DefaultShards = 8

// ShardOf returns the shard an entity's facts live in: FNV-1a over the
// entity name modulo n. Every route that names an entity — /v1/entity,
// /v1/triples, entity-constrained /v1/query — therefore touches exactly
// one shard, and the assignment is stable across processes and runs, so
// the same snapshot always shards the same way.
func ShardOf(entity string, n int) int {
	// hash/fnv's 64-bit FNV-1a, inlined: no hasher and no []byte copy on
	// a call every entity-keyed read makes.
	h := uint64(14695981039346656037)
	for i := 0; i < len(entity); i++ {
		h = (h ^ uint64(entity[i])) * 1099511628211
	}
	return int(h % uint64(n))
}

// Sharded is the store: the fused KB partitioned by entity hash into
// shards, each with its own indexes. What a read returns — facts, order,
// totals, estimates — does not depend on the shard count; the count bounds
// per-shard index size and is the seam for multi-process deployment: a
// shard is self-contained, so peeling one onto another machine changes
// routing, not semantics.
//
// A pattern that names an entity reads exactly one shard. Any other reads
// every shard and merges the per-shard streams — each already in canonical
// order — by reference (see Cursor), so the global order equals the
// one-shard order without a post-merge sort; with one shard there is
// nothing to merge. Nothing is written after construction, so all methods
// are safe for unsynchronised concurrent use.
type Sharded struct {
	shards  []*shard
	classes []string
	nFacts  int
	nEntity int

	// names is every distinct string of the facts — entities, classes,
	// attributes, values, ancestors — sorted, each once, and the table that
	// finds a name's ID: what the rank columns and every index are keyed by.
	names *nameTable
}

// New builds a one-shard store over the facts. The input is copied, sorted
// into the canonical (entity, attr, value, class) order and deduplicated,
// so every read returns facts in the same deterministic order. Of facts
// that share a key, the one compareFacts puts first is kept. A NaN or
// infinite confidence, or a negative source count, cannot be served or
// written: New panics with an error that names the fact.
func New(facts []Fact) *Sharded { return NewSharded(facts, 1) }

// NewSharded partitions a copy of facts by entity hash into n shards
// (DefaultShards when n <= 0), numbers the strings of them all and indexes
// each shard independently by those numbers. Deduplication is global even
// though each shard dedups locally: facts with the same identity key share an
// entity and therefore a shard, and which of them is kept is a function of
// the facts alone (compareFacts), not of the layout. It refuses what New
// refuses, the same way.
func NewSharded(facts []Fact, n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	parts := make([][]Fact, n)
	if n == 1 {
		parts[0] = slices.Clone(facts)
	} else {
		// Count first, so each part is allocated once at its final size and
		// sorted in place.
		home := make([]int32, len(facts))
		sizes := make([]int, n)
		for i := range facts {
			home[i] = int32(ShardOf(facts[i].Entity, n))
			sizes[home[i]]++
		}
		for i, size := range sizes {
			parts[i] = make([]Fact, 0, size)
		}
		for i, f := range facts {
			parts[home[i]] = append(parts[home[i]], f)
		}
	}
	// The parts share nothing but the string table: each is sorted and its
	// strings found on its own, beside the others where there are processors
	// for it; the table is their sorted union; then each is indexed by it.
	seen := make([][]string, n)
	mapreduce.ForEach(mapreduce.Config{}, n, func(i int) {
		parts[i] = canonical(parts[i])
		seen[i] = distinctStrings(parts[i])
	})
	names := newNameTable(sortedUnion(seen))
	shards := make([]*shard, n)
	mapreduce.ForEach(mapreduce.Config{}, n, func(i int) {
		shards[i], parts[i] = build(parts[i], names), nil
	})
	return newSharded(shards, names)
}

// canonical sorts fs in place into canonical order and drops facts that
// repeat an identity key; the first in compareFacts' order wins. The order
// is total, so the survivor does not depend on how the sort moved the facts,
// nor on which of them shared a part.
func canonical(fs []Fact) []Fact {
	sort.Slice(fs, func(i, j int) bool { return compareFacts(&fs[i], &fs[j]) < 0 })
	return slices.CompactFunc(fs, sameFactKey)
}

// newSharded assembles the shards, the string table they are keyed by and
// their summed counts. Shards partition entities, so the per-shard counts
// sum without overlap.
func newSharded(shards []*shard, names *nameTable) *Sharded {
	s := &Sharded{shards: shards, names: names}
	var classes []uint32
	for _, sh := range shards {
		s.nFacts += sh.len()
		s.nEntity += len(sh.runs)
		classes = append(classes, sh.byClass.ids...)
	}
	// IDs are in string order: sorted, they are the classes sorted, the
	// empty one — listed, but no class — first.
	slices.Sort(classes)
	classes = slices.Compact(classes)
	if len(classes) > 0 && names.strs[classes[0]] == "" {
		classes = classes[1:]
	}
	s.classes = make([]string, len(classes))
	for i, id := range classes {
		s.classes[i] = names.strs[id]
	}
	return s
}

// ResultFacts extracts the fused facts of a pipeline result — one fact per
// accepted truth of every fusion decision, annotated with the entity's
// class and the value's hierarchy ancestors from the result's world —
// without building indexes: New(ResultFacts(res)) snapshots a run. The facts
// come in the decisions' order (item-key order) and, within a decision, in
// its truths': the same slice for the same result, though not the store's
// canonical order. Items of one subject are neighbours there, so the entity
// name and class are resolved once per subject.
func ResultFacts(res *core.Result) []Fact {
	fused := res.Fused()
	if fused == nil {
		return nil
	}
	facts := make([]Fact, 0, fused.NumTruths())
	attrs := extract.Names{}
	var hier *hierarchy.Forest
	if res.World != nil {
		hier = res.World.Hier
	}
	var subject rdf.Term
	var entity, class string
	for i := range fused.Decisions {
		d := &fused.Decisions[i]
		if i == 0 || d.Item.Subject != subject {
			subject = d.Item.Subject
			entity, class = extract.AttrFromIRI(subject), ""
			if res.World != nil {
				if e, ok := res.World.Entity(entity); ok {
					class = e.Class
				}
			}
		}
		attr := attrs.Of(d.Item.Predicate)
		for _, tr := range d.Truths {
			belief, sources, _ := d.Support(tr)
			var anc []string
			if hier != nil {
				anc = hier.Ancestors(tr.Value)
			}
			facts = append(facts, Fact{
				Entity:     entity,
				Class:      class,
				Attr:       attr,
				Value:      tr.Value,
				Confidence: belief,
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
			for _, row := range e.Values {
				for _, v := range row.Values {
					facts = append(facts, Fact{
						Entity:     e.Name,
						Class:      class,
						Attr:       row.Attr,
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

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Len returns the number of facts.
func (s *Sharded) Len() int { return s.nFacts }

// EntityCount returns the number of distinct entities.
func (s *Sharded) EntityCount() int { return s.nEntity }

// Classes returns the distinct entity classes in sorted order. The
// returned slice must not be modified.
func (s *Sharded) Classes() []string { return s.classes }

// Facts returns every fact in canonical order, in a fresh slice, never nil;
// the facts' Ancestors are windows of the store's, which the caller must not
// write through. It is for re-sharding and tests, not the serving
// path: every fact is made from the columns.
func (s *Sharded) Facts() []Fact {
	out := make([]Fact, 0, s.nFacts)
	if len(s.shards) == 1 {
		out = out[:s.nFacts]
		s.shards[0].facts(out, 0)
		return out
	}
	c := s.Select(Pattern{})
	for c.Next() {
		out = append(out, c.Fact())
	}
	return out
}

// compareKeys orders facts canonically: by entity, attribute, value, class.
func compareKeys(a, b *Fact) int {
	if c := strings.Compare(a.Entity, b.Entity); c != 0 {
		return c
	}
	if c := strings.Compare(a.Attr, b.Attr); c != 0 {
		return c
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	return strings.Compare(a.Class, b.Class)
}

// compareFacts extends the canonical order to a total one: of two facts with
// one identity key, the higher confidence comes first, then the more
// sources, then the ancestors that compare lower element by element. The
// confidences' bits break a tie of −0 and +0 last.
func compareFacts(a, b *Fact) int {
	if c := compareKeys(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Confidence, a.Confidence); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Sources, a.Sources); c != 0 {
		return c
	}
	if c := slices.Compare(a.Ancestors, b.Ancestors); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.Confidence), math.Float64bits(b.Confidence))
}

func sameFactKey(a, b Fact) bool {
	return a.Entity == b.Entity && a.Attr == b.Attr && a.Value == b.Value && a.Class == b.Class
}

// servable refuses a fact no reader could be handed: a NaN or infinite
// confidence has no JSON spelling and no place in a snapshot, and a source
// count counts.
func servable(f *Fact) error {
	if math.IsNaN(f.Confidence) || math.IsInf(f.Confidence, 0) {
		return fmt.Errorf("store: fact %+v has the non-finite confidence %v", *f, f.Confidence)
	}
	if f.Sources < 0 {
		return fmt.Errorf("store: fact %+v has the negative source count %d", *f, f.Sources)
	}
	return nil
}
