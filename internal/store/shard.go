package store

import "slices"

// shard is one partition of the store: its facts and the indexes over
// them. Nothing is written after assemble returns.
type shard struct {
	// facts is in canonical order without duplicate keys, so every
	// entity's facts are contiguous and ordered by attribute. Never nil:
	// Facts hands out a one-shard store's own array.
	facts []Fact

	byEntity map[string]span // entity → its run of facts
	runs     []span          // every entity's run, in fact order
	runOf    []int32         // fact position → its entity's number in runs
	rank     []uint32        // run number → its entity's ID in the store's sorted string table
	byAttr   postings
	attrNo   []int32  // fact position → its attribute's list number in byAttr
	byClass  postings // facts with an empty class are not listed
	byValue  postings // a fact is listed under its value and each ancestor
	// valueNo is byValue's list number of every value posting, in fact order:
	// a fact's value, then its ancestors, then the next fact's.
	valueNo []int32
}

// span is the half-open range [lo, hi) of positions in shard.facts.
type span struct{ lo, hi int32 }

// postings is one inverted index: key → ascending fact positions. Every
// list is a window of one shared arena, so an index is three allocations
// however many keys it holds. Lists are numbered in the order their keys
// first occur in the facts.
type postings struct {
	list  map[string]int32 // key → list number
	off   []int32          // list i is arena[off[i]:off[i+1]]
	arena []int32
	ids   []uint32 // list number → its key's ID in the store's string table
}

func (p *postings) of(key string) []int32 {
	i, ok := p.list[key]
	if !ok {
		return nil
	}
	return p.arena[p.off[i]:p.off[i+1]]
}

// postingsBuilder collects one index's (list number, position) pairs in
// fact order and lays them out in a single count → prefix sum → fill pass:
// no list is ever grown. A builder is fed one of two ways, and numbers the
// lists alike in both — in the order their keys are first seen. By name
// (add) a posting is a probe of the map that becomes the index's own, and
// the index's ids are left for numberStrings to fill from keys; by number
// (addID), for a caller that knows every key as an index into the string
// table, it is a read of an array, the map is filled once a list, at its
// final size, when the index is laid out, and the ids are the indexes fed.
type postingsBuilder struct {
	n   []int32 // postings per list
	key []int32 // list number of every posting, in the order added
	pos []int32 // fact position of every posting

	list map[string]int32 // fed by name: key → list number
	keys []string         // and list number → key
	last int32            // list of the previous posting: runs of one key skip the hash
	prev string

	names []string // fed by number: the string table the keys index
	ids   []uint32 // and list number → its key's index in it
}

// newPostingsBuilder makes a builder with room for that many postings.
// names is the table behind addID; a builder fed by name has none.
func newPostingsBuilder(postings int, names []string) *postingsBuilder {
	return &postingsBuilder{
		key:   make([]int32, 0, postings),
		pos:   make([]int32, 0, postings),
		names: names,
	}
}

func (b *postingsBuilder) add(key string, pos int32) {
	if len(b.key) == 0 || key != b.prev {
		if b.list == nil {
			b.list = make(map[string]int32)
		}
		i, ok := b.list[key]
		if !ok {
			i = int32(len(b.n))
			b.list[key] = i
			b.n = append(b.n, 0)
			b.keys = append(b.keys, key)
		}
		b.last, b.prev = i, key
	}
	b.n[b.last]++
	b.key = append(b.key, b.last)
	b.pos = append(b.pos, pos)
}

// addID is add for the key names[id]. no is the caller's scratch over the
// table — key index → list number, −1 until the key is first seen — which
// forget hands back clean.
func (b *postingsBuilder) addID(no []int32, id uint32, pos int32) {
	i := no[id]
	if i < 0 {
		i = int32(len(b.n))
		no[id] = i
		b.n = append(b.n, 0)
		b.ids = append(b.ids, id)
	}
	b.n[i]++
	b.key = append(b.key, i)
	b.pos = append(b.pos, pos)
}

// forget resets the entries of no that addID set.
func (b *postingsBuilder) forget(no []int32) {
	for _, id := range b.ids {
		no[id] = -1
	}
}

// postings lays the index out.
func (b *postingsBuilder) postings() postings {
	list := b.list
	if list == nil { // fed by number, or nothing
		list = make(map[string]int32, len(b.ids))
		for i, id := range b.ids {
			list[b.names[id]] = int32(i)
		}
	}
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
	return postings{list: list, off: off, arena: arena, ids: b.ids}
}

// build indexes facts that are already canonical — sorted, no duplicate
// keys — and takes ownership of the slice: it finds the runs and numbers
// every index key by name, then assembles. It returns the keys of the
// attribute, class and value lists by list number, from which numberStrings
// gives the shard its rank column and the indexes their ids. NewSharded
// reaches it after copy, sort and dedup; the snapshot decoder, which verifies
// the order instead of re-establishing it and reads runs, ranks and string
// IDs off the file, feeds its own builders and calls assemble directly.
func build(facts []Fact) (*shard, [3][]string) {
	var runs []span
	attrs, classes, values := newPostingsBuilder(len(facts), nil), newPostingsBuilder(len(facts), nil), newPostingsBuilder(len(facts), nil)
	for i := range facts {
		f, pos := &facts[i], int32(i)
		if i == 0 || f.Entity != facts[i-1].Entity {
			runs = append(runs, span{pos, pos})
		}
		runs[len(runs)-1].hi = pos + 1
		attrs.add(f.Attr, pos)
		if f.Class != "" {
			classes.add(f.Class, pos)
		}
		values.add(f.Value, pos)
		for _, anc := range f.Ancestors {
			values.add(anc, pos)
		}
	}
	return assemble(facts, runs, attrs, classes, values), [3][]string{attrs.keys, classes.keys, values.keys}
}

// assemble is the one index builder: canonical facts, their entities' runs
// and the three builders that were fed the facts in order — every fact's
// attribute; its class unless empty; its value, then its ancestors — become
// a shard.
func assemble(facts []Fact, runs []span, attrs, classes, values *postingsBuilder) *shard {
	if facts == nil {
		facts = []Fact{}
	}
	s := &shard{facts: facts, runs: runs, runOf: make([]int32, len(facts))}
	s.byEntity = make(map[string]span, len(runs))
	for i, run := range runs {
		s.byEntity[facts[run.lo].Entity] = run
		for pos := run.lo; pos < run.hi; pos++ {
			s.runOf[pos] = int32(i)
		}
	}
	s.byAttr, s.byClass, s.byValue = attrs.postings(), classes.postings(), values.postings()
	// Every fact posts its attribute once, in fact order: the builder's list
	// number per posting is the attribute-number column. The values builder's
	// is the value-number column, one entry a posting.
	s.attrNo, s.valueNo = attrs.key, values.key
	return s
}

// attrRun narrows one entity's run to one attribute's facts: inside an
// entity the canonical order is by attribute, so they are contiguous. The
// attribute is looked up once, as its list number in byAttr, and found in
// the run by comparing that number with the run's window of attrNo — a few
// adjacent int32s — without touching a fact.
func (s *shard) attrRun(run span, attr string) span {
	no, ok := s.byAttr.list[attr]
	if !ok {
		return span{run.lo, run.lo}
	}
	nos := s.attrNo[run.lo:run.hi]
	lo := 0
	for lo < len(nos) && nos[lo] != no {
		lo++
	}
	hi := lo
	for hi < len(nos) && nos[hi] == no {
		hi++
	}
	return span{run.lo + int32(lo), run.lo + int32(hi)}
}

// shardCursor is how one shard reads one pattern. A pattern that names an
// entity, or nothing at all, reads a contiguous run of the fact array
// (cand is nil, [pos, end) are positions in sh.facts). Any other walks one
// postings list (cand, and [pos, end) index it): the shortest of the lists
// of the fields the pattern sets, class before attribute before value on a
// tie. Every list is in ascending position order, so which one is walked
// changes the cost of a read and never its output. rest is what of the
// pattern that choice does not already guarantee. The zero value is the
// empty stream.
type shardCursor struct {
	sh       *shard
	cand     []int32
	rest     Pattern
	pos, end int32
	at       int32 // position in sh.facts of the fact next last returned
}

func (s *shard) cursor(q Pattern) shardCursor {
	if q.Entity != "" {
		return s.runCursor(s.byEntity[q.Entity], q)
	}
	c := shardCursor{sh: s, rest: q}
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
		c.end = int32(len(s.facts))
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
	c.end = int32(len(c.cand)) // no list under that key: the empty run
	return c
}

// runCursor reads q inside one entity's run: the run is the entity, so
// q.Entity is not consulted, and an attribute narrows the run further.
func (s *shard) runCursor(run span, q Pattern) shardCursor {
	c := shardCursor{sh: s, rest: q}
	c.rest.Entity = ""
	if q.Attr != "" {
		run, c.rest.Attr = s.attrRun(run, q.Attr), ""
	}
	c.pos, c.end = run.lo, run.hi
	return c
}

// size is the number of facts the cursor has left to visit, before
// filtering.
func (c *shardCursor) size() int { return int(c.end - c.pos) }

// isRun reports whether what is left of the cursor is one run of the fact
// array with nothing to filter: run() is the answer.
func (c *shardCursor) isRun() bool { return c.cand == nil && c.rest == (Pattern{}) }

// run is the window of the fact array an isRun cursor has left.
func (c *shardCursor) run() []Fact {
	if c.sh == nil {
		return nil
	}
	return c.sh.facts[c.pos:c.end]
}

// next returns the next matching fact in place — a pointer into the
// shard's immutable fact array — or nil when the stream is exhausted.
func (c *shardCursor) next() *Fact {
	for c.pos < c.end {
		i := c.pos
		if c.cand != nil {
			i = c.cand[i]
		}
		c.pos++
		if f := &c.sh.facts[i]; matches(f, &c.rest) {
			c.at = i
			return f
		}
	}
	return nil
}

// count drains the cursor and returns how many matches it had left.
func (c *shardCursor) count() int {
	if c.isRun() {
		n := c.size()
		c.pos = c.end
		return n
	}
	n := 0
	for c.next() != nil {
		n++
	}
	return n
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
