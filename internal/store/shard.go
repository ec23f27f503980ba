package store

import "slices"

// shard is one partition of the store: its facts, as columns, and the
// indexes over them. A fact is a position: the facts are in canonical order
// without duplicate keys, so every entity's facts are contiguous and ordered
// by attribute, and every per-fact column is indexed by position. No column
// holds a Fact, and none of them per fact holds a pointer: a Fact is made
// from them (fact, facts) only when it leaves the store. Nothing is written
// after assemble returns.
type shard struct {
	runs  []span  // every entity's run, in fact order
	runOf []int32 // fact position → its entity's number in runs
	// rank is run number → its entity's ID in the store's sorted string table.
	// It rises along the runs, so an entity's run is a binary search of it.
	rank   []uint32
	byAttr postings
	attrNo []int32 // fact position → its attribute's list number in byAttr
	// byClass lists every fact under its class, the empty one too, which no
	// read looks up (an empty Pattern.Class is the wildcard): that makes the
	// builder's list number per posting a column, classNo.
	byClass postings
	classNo []int32  // fact position → its class's list number in byClass
	byValue postings // a fact is listed under its value and each ancestor
	// valueNo is byValue's list number of every value posting, in fact order:
	// a fact's value, then its ancestors, then the next fact's.
	valueNo []int32
	// first is fact position → the fact's first posting in valueNo, its
	// value's, and one entry more for the end: fact i's ancestors are
	// valueNo[first[i]+1:first[i+1]].
	first []int32
	// valueID is fact position → its value's ID in the store's string table:
	// what a read by number (Cursor.IDs, Run.Where) binds and compares.
	valueID []uint32
	conf    []float64 // fact position → its confidence
	sources []int     // fact position → its source count
	// anc is every ancestor posting's name, in valueNo's order without the
	// values: fact i's ancestors are anc[first[i]-i:first[i+1]-i-1], so
	// Fact.Ancestors is a window of it, not an allocation.
	anc []string
	// names is the store's string table: every ID of a column is a string of
	// it, and a Run finds a pattern's attribute in it.
	names *nameTable
}

// span is the half-open range [lo, hi) of a shard's fact positions.
type span struct{ lo, hi int32 }

// len is the number of facts.
func (s *shard) len() int { return len(s.conf) }

// entity is the name of the entity of the fact at i.
func (s *shard) entity(i int32) string { return s.names.strs[s.rank[s.runOf[i]]] }

// fact makes the fact at i.
func (s *shard) fact(i int32) Fact {
	var f Fact
	s.fill(&f, i, s.entity(i), s.names.strs[s.byClass.ids[s.classNo[i]]])
	return f
}

// facts fills out with the facts from position lo on. An entity's name is
// read once a run and a class's where it changes, not once a fact.
func (s *shard) facts(out []Fact, lo int32) {
	strs := s.names.strs
	run, class := int32(-1), int32(-1)
	var entityName, className string
	for j := range out {
		i := lo + int32(j)
		if r := s.runOf[i]; r != run {
			run, entityName = r, strs[s.rank[r]]
		}
		if c := s.classNo[i]; c != class {
			class, className = c, strs[s.byClass.ids[c]]
		}
		s.fill(&out[j], i, entityName, className)
	}
}

// fill makes f the fact at i, whose entity and class are named entity and
// class. Its strings are the table's and its ancestors a window of anc: the
// caller must not write through them. A fact with no ancestors has nil.
func (s *shard) fill(f *Fact, i int32, entity, class string) {
	strs := s.names.strs
	*f = Fact{Entity: entity, Class: class, Attr: strs[s.byAttr.ids[s.attrNo[i]]], Value: strs[s.valueID[i]],
		Confidence: s.conf[i], Sources: s.sources[i]}
	if lo, hi := s.first[i]-i, s.first[i+1]-i-1; lo < hi {
		f.Ancestors = s.anc[lo:hi:hi]
	}
}

// postings is one inverted index: key → ascending fact positions. Every
// list is a window of one shared arena. Lists are numbered in the order their
// keys first occur in the facts and found by the key's ID in the store's
// string table, through an open-addressed table of list numbers: no string
// is hashed and nothing is sorted.
type postings struct {
	off   []int32 // list i is arena[off[i]:off[i+1]]
	arena []int32
	ids   []uint32   // list number → its key's ID
	slot  []listSlot // key ID → list number
}

// listSlot is one slot of a postings index's table: a key's ID and its list
// number + 1; 0 is an empty slot.
type listSlot struct {
	id uint32
	no int32
}

// findList returns the slot of the list keyed by id, or the empty slot where
// it would go. The IDs are spread over the slots by Fibonacci hashing.
func findList(slot []listSlot, id uint32) (int, bool) {
	mask := len(slot) - 1
	for h := int(uint64(id)*0x9E3779B97F4A7C15>>32) & mask; ; h = (h + 1) & mask {
		s := slot[h]
		if s.no == 0 {
			return h, false
		}
		if s.id == id {
			return h, true
		}
	}
}

// list returns the number of the list keyed by id.
func (p *postings) list(id uint32) (int32, bool) {
	h, ok := findList(p.slot, id)
	return p.slot[h].no - 1, ok
}

func (p *postings) of(id uint32) []int32 {
	i, ok := p.list(id)
	if !ok {
		return nil
	}
	return p.arena[p.off[i]:p.off[i+1]]
}

// at is the list numbered no - 1 (listOf's encoding); nil for no <= 0.
func (p *postings) at(no int32) []int32 {
	if no <= 0 {
		return nil
	}
	return p.arena[p.off[no-1]:p.off[no]]
}

// postingsBuilder collects one index's (list number, position) pairs in
// fact order and lays them out in a single count → prefix sum → fill pass:
// no list is ever grown. It is fed one way, by number (addID): every key is
// its ID in the store's string table, and a posting is a read of a scratch
// column over the table (no, key ID → list number + 1, 0 until the key is
// first seen, when its list is numbered next). The index's own table, ID →
// list, is made once, at its final size, when the index is laid out.
type postingsBuilder struct {
	no  []int32  // the caller's scratch column, which forget hands back clean
	n   []int32  // postings per list
	key []int32  // list number of every posting, in the order added
	pos []int32  // fact position of every posting
	ids []uint32 // list number → its key's ID
}

// newPostingsBuilder makes a builder with room for that many postings that
// numbers its lists in the scratch column no.
func newPostingsBuilder(postings int, no []int32) postingsBuilder {
	return postingsBuilder{
		no:  no,
		key: make([]int32, 0, postings),
		pos: make([]int32, 0, postings),
	}
}

// addID posts the fact at pos under the key with that ID.
func (b *postingsBuilder) addID(id uint32, pos int32) {
	i := b.no[id] - 1
	if i < 0 {
		i = int32(len(b.ids))
		b.no[id] = i + 1
		b.n = append(b.n, 0)
		b.ids = append(b.ids, id)
	}
	b.n[i]++
	b.key = append(b.key, i)
	b.pos = append(b.pos, pos)
}

// forget resets the entries of the scratch column that addID set.
func (b *postingsBuilder) forget() {
	for _, id := range b.ids {
		b.no[id] = 0
	}
}

// postings lays the index out.
func (b *postingsBuilder) postings() postings {
	slot := make([]listSlot, tableSize(len(b.ids)))
	for i, id := range b.ids {
		h, _ := findList(slot, id)
		slot[h] = listSlot{id, int32(i) + 1}
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
	return postings{off: off, arena: arena, ids: b.ids, slot: slot}
}

// feed is one shard on its way to the index builder: its entities' runs with
// each run's entity ID, the per-fact columns — value ID, confidence, source
// count — and the three builders fed the facts in order: every fact's
// attribute; its class; its value, then its ancestors. build fills one from
// the facts' names, the snapshot decoder from the file's IDs.
type feed struct {
	runs                   []span
	rank                   []uint32
	valueID                []uint32
	conf                   []float64
	sources                []int
	attrs, classes, values postingsBuilder
}

// scratch is the three scratch columns — attribute, class, value — a feed
// numbers its lists in, over a string table of n strings.
func scratch(n int) [3][]int32 {
	all := make([]int32, 3*n)
	return [3][]int32{all[:n:n], all[n : 2*n : 2*n], all[2*n:]}
}

// newFeed makes the feed of n facts with room for that many value postings.
func newFeed(n, values int, no [3][]int32) feed {
	return feed{valueID: make([]uint32, n), conf: make([]float64, n), sources: make([]int, n),
		attrs: newPostingsBuilder(n, no[0]), classes: newPostingsBuilder(n, no[1]), values: newPostingsBuilder(values, no[2])}
}

// forget hands the feed's scratch columns back clean, for the next shard's.
func (fd *feed) forget() {
	fd.attrs.forget()
	fd.classes.forget()
	fd.values.forget()
}

// build indexes facts that are already canonical — sorted, no duplicate
// keys — into the columns: it finds the runs, copies the confidences and
// source counts, feeds the builders every key's ID in names, then
// assembles; the facts are not kept. It panics with servable's error on a
// fact that is not. NewSharded reaches it after copy, sort, dedup and
// numbering; the snapshot decoder, which verifies the order instead of
// re-establishing it and reads runs, ranks and IDs off the file, fills its
// own feed.
func build(facts []Fact, names *nameTable) *shard {
	values := len(facts)
	for i := range facts {
		values += len(facts[i].Ancestors)
	}
	fd := newFeed(len(facts), values, scratch(len(names.strs)))
	var class uint32
	for i := range facts {
		f, pos := &facts[i], int32(i)
		if err := servable(f); err != nil {
			panic(err)
		}
		fd.conf[i], fd.sources[i] = f.Confidence, f.Sources
		if i == 0 || f.Entity != facts[i-1].Entity {
			fd.runs = append(fd.runs, span{pos, pos})
			fd.rank = append(fd.rank, names.id(f.Entity))
		}
		fd.runs[len(fd.runs)-1].hi = pos + 1
		fd.attrs.addID(names.id(f.Attr), pos)
		// The class repeats down an entity's run: it is looked up where it
		// changes.
		if i == 0 || f.Class != facts[i-1].Class {
			class = names.id(f.Class)
		}
		fd.classes.addID(class, pos)
		fd.valueID[i] = names.id(f.Value)
		fd.values.addID(fd.valueID[i], pos)
		for _, anc := range f.Ancestors {
			fd.values.addID(names.id(anc), pos)
		}
	}
	return fd.assemble(names)
}

// assemble is the one index builder: a feed becomes a shard of the store
// whose string table is names.
func (fd *feed) assemble(names *nameTable) *shard {
	n := len(fd.conf)
	s := &shard{runs: fd.runs, runOf: make([]int32, n), rank: fd.rank, valueID: fd.valueID,
		conf: fd.conf, sources: fd.sources, names: names}
	for i, run := range fd.runs {
		for pos := run.lo; pos < run.hi; pos++ {
			s.runOf[pos] = int32(i)
		}
	}
	// Every fact posts its value before its ancestors, so its first value
	// posting is where its position first appears.
	pos := fd.values.pos
	s.first = make([]int32, n+1)
	for j := len(pos) - 1; j >= 0; j-- {
		s.first[pos[j]] = int32(j)
	}
	s.first[n] = int32(len(pos))
	s.byAttr, s.byClass, s.byValue = fd.attrs.postings(), fd.classes.postings(), fd.values.postings()
	// Every fact posts its attribute and its class once, in fact order: the
	// builders' list numbers per posting are the attribute- and class-number
	// columns. The values builder's is the value-number column, one entry a
	// posting.
	s.attrNo, s.classNo, s.valueNo = fd.attrs.key, fd.classes.key, fd.values.key
	s.anc = make([]string, len(s.valueNo)-n)
	for i, k := 0, 0; i < n; i++ {
		for _, no := range s.valueNo[s.first[i]+1 : s.first[i+1]] {
			s.anc[k] = names.strs[s.byValue.ids[no]]
			k++
		}
	}
	return s
}

// run is the run of the entity with that ID, found in rank; the empty run
// for an ID no run has, NoID among them.
func (s *shard) run(entity uint32) span {
	if i, ok := slices.BinarySearch(s.rank, entity); ok {
		return s.runs[i]
	}
	return span{}
}

// attrRun narrows one entity's run to the facts of the attribute with that
// ID: inside an entity the canonical order is by attribute, so they are
// contiguous. The attribute's list number in byAttr is found once and
// compared with the run's window of attrNo — a few adjacent int32s —
// without touching a fact.
func (s *shard) attrRun(run span, attr uint32) span {
	no, ok := s.byAttr.list(attr)
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
// entity, or nothing at all, reads a contiguous run of fact positions
// (cand is nil, [pos, end) are fact positions). Any other walks one
// postings list (cand, and [pos, end) index it): the shortest of the lists
// of the fields the pattern sets, class before attribute before value on a
// tie. Every list is in ascending position order, so which one is walked
// changes the cost of a read and never its output. What of the pattern that
// choice does not already guarantee is checked fact by fact, by number: an
// attribute and a class by their list numbers (attrNo, classNo), a value by
// its ID (valueID), and a value matched through the hierarchy that is not
// the fact's own by the IDs of its ancestors' lists (valueNo): no name is
// compared. The zero value is the empty stream.
type shardCursor struct {
	sh       *shard
	cand     []int32
	pos, end int32
	at       int32 // position of the fact next last stepped to
	// attr and class are the list number + 1 a match's attribute and class
	// must have: 0 is any, -1 none (the shard lists no such key).
	attr, class int32
	// value is the ID of the value a match's must be (exactValue) or equal or
	// specialise (generalValue); NoID, a name the store lacks, is none.
	value uint32
	mode  valueMode
}

// valueMode is how a shardCursor checks a fact's value.
type valueMode uint8

const (
	anyValue     valueMode = iota
	exactValue             // its ID is the cursor's value
	generalValue           // it is the cursor's value or one of its ancestors is
)

// checks sets the cursor's per-fact checks to every field of q but the
// entity, whose names the store has looked up as k.
func (c *shardCursor) checks(q Pattern, k patternIDs) {
	s := c.sh
	if q.Attr != "" {
		c.attr = listOf(&s.byAttr, k.attr)
	}
	if q.Class != "" {
		c.class = listOf(&s.byClass, k.class)
	}
	if q.Value != "" {
		c.value, c.mode = k.value, generalValue
		if q.Exact {
			c.mode = exactValue
		}
	}
}

// listOf is the number + 1 of the list keyed by id, -1 when the index has
// none.
func listOf(p *postings, id uint32) int32 {
	no, ok := p.list(id)
	if !ok {
		return -1
	}
	return no + 1
}

// cursor opens the shard's stream of q, whose names the store has looked up
// as k.
func (s *shard) cursor(q Pattern, k patternIDs) shardCursor {
	if q.Entity != "" {
		return s.runCursor(s.run(k.entity), q, k)
	}
	c := shardCursor{sh: s}
	c.checks(q, k)
	// walked is the field whose list is walked, and whose check it makes
	// redundant.
	walked := 0
	if q.Class != "" {
		c.cand, walked = s.byClass.at(c.class), 1
	}
	if q.Attr != "" {
		if l := s.byAttr.at(c.attr); walked == 0 || len(l) < len(c.cand) {
			c.cand, walked = l, 2
		}
	}
	if q.Value != "" {
		if l := s.byValue.of(k.value); walked == 0 || len(l) < len(c.cand) {
			c.cand, walked = l, 3
		}
	}
	switch walked {
	case 0:
		c.end = int32(s.len())
		return c
	case 1:
		c.class = 0
	case 2:
		c.attr = 0
	case 3:
		// The by-value postings already encode the hierarchy semantics
		// (facts are posted under their value and every ancestor); under
		// Exact they are a superset (they include specialisations) and the
		// ID check stays.
		if c.mode == generalValue {
			c.mode = anyValue
		}
	}
	c.end = int32(len(c.cand)) // no list under that key: the empty run
	return c
}

// runCursor reads q inside one entity's run: the run is the entity, so
// q.Entity is not consulted, and an attribute narrows the run further.
func (s *shard) runCursor(run span, q Pattern, k patternIDs) shardCursor {
	if q.Attr != "" {
		run, q.Attr = s.attrRun(run, k.attr), ""
	}
	c := shardCursor{sh: s, pos: run.lo, end: run.hi}
	c.checks(q, k)
	return c
}

// size is the number of facts the cursor has left to visit, before
// filtering.
func (c *shardCursor) size() int { return int(c.end - c.pos) }

// unchecked reports whether the cursor checks nothing: every position, or
// every posting of its list, it has left matches.
func (c *shardCursor) unchecked() bool {
	return c.attr == 0 && c.class == 0 && c.mode == anyValue
}

// isRun reports whether what is left of the cursor is one run of fact
// positions, [pos, end), with nothing to check: every one of them matches.
func (c *shardCursor) isRun() bool { return c.cand == nil && c.unchecked() }

// next steps to the next matching fact, at, and reports whether there was
// one.
func (c *shardCursor) next() bool {
	for c.pos < c.end {
		i := c.pos
		if c.cand != nil {
			i = c.cand[i]
		}
		c.pos++
		sh := c.sh
		if c.attr != 0 && sh.attrNo[i]+1 != c.attr || c.class != 0 && sh.classNo[i]+1 != c.class ||
			c.mode != anyValue && sh.valueID[i] != c.value && (c.mode == exactValue || !c.specialises(i)) {
			continue
		}
		c.at = i
		return true
	}
	return false
}

// specialises reports whether the cursor's value is one of the ancestors of
// the fact at i: the key of one of the lists its ancestor postings are in. No
// list is keyed by NoID, so a name the store lacks is nobody's.
func (c *shardCursor) specialises(i int32) bool {
	sh := c.sh
	for _, no := range sh.valueNo[sh.first[i]+1 : sh.first[i+1]] {
		if sh.byValue.ids[no] == c.value {
			return true
		}
	}
	return false
}

// count drains the cursor and returns how many matches it had left.
func (c *shardCursor) count() int {
	if c.unchecked() {
		n := c.size()
		c.pos = c.end
		return n
	}
	n := 0
	for c.next() {
		n++
	}
	return n
}
