package store

// Querier is the whole read interface of a store: three summary numbers,
// one read primitive and its free cost bound. *Sharded implements it;
// wrappers — the chaos injector in chaos.go, a test's delegating shim, one
// day a remote shard — implement it by wrapping Select, and everything
// else (Lookup, LookupN, the HTTP handlers, the datalog planner and
// executor) is written once over these five methods.
//
// Every method must be safe for unsynchronised concurrent use, like the
// immutable store it usually wraps.
type Querier interface {
	// Len returns the number of facts.
	Len() int
	// EntityCount returns the number of distinct entities.
	EntityCount() int
	// Classes returns the distinct entity classes in sorted order.
	Classes() []string
	// Select opens a cursor over the facts matching p, in canonical order.
	Select(p Pattern) Cursor
	// CountEstimate returns an upper bound on how many facts match p,
	// read off index lengths: no scan, no allocation.
	CountEstimate(p Pattern) int
}

var _ Querier = (*Sharded)(nil)

// Cursor is the relation a pattern selects, as a lazy sequence: Next steps
// to the matching facts one at a time in canonical order, Fact makes the one
// it stepped to out of the store's columns, and Count says how many are left
// without ordering them. A cursor over one shard — the pattern names an
// entity, or the store has one shard — is a plain value: opening it
// allocates nothing. A scatter holds every shard's stream, stopped at its
// next match, and Next k-way merges them by the rank of that match's
// entity: no fact is made to order it, and one is made only if the consumer
// asks for it. Ranks alone decide because entities are partitioned
// across shards — two heads never hold the same entity, so two ranks never
// tie — and inside its entity a shard's stream is already in order; linear
// minimum selection over the shard count beats heap bookkeeping at the 8–64
// shard sizes this store runs at. The merge is what the order costs, so a
// consumer that has its ordered page says so (Unordered) and gets the rest
// shard by shard.
//
// A fact sits inside its entity's run of one shard, and the cursor knows
// where: Run hands that run out, to be read again (Run.Where) without
// routing to a shard, finding the entity or another trip through the
// Querier — what a join on the entity needs. It also knows the fact by
// number: IDs reads its entity, attribute and value IDs off the store's
// columns, and Names is the table they index — what a reader that joins on
// numbers needs instead of the fact's strings. A consumer that only counts
// a join on the entity has CountProducts read every remaining match's run
// at once, beside the cursor, instead of a Where a match.
//
// Cursors are single-consumer and not safe for concurrent use: open one
// per consumer — the store underneath is shared. The zero Cursor is empty.
type Cursor struct {
	// The stream, when heads is nil. Of a scatter, only sh and at are used:
	// where the fact Next last stepped to sits.
	shardCursor
	heads     []head // a scatter: one per shard
	unordered bool   // a scatter whose consumer released the order
}

// head is one shard's stream in a scatter, stopped at its next match: the
// fact at position at, whose entity has the rank kept beside it — while the
// cursor is ordered; once it is not, a head that has a match holds some
// rank other than noRank, not its match's.
type head struct {
	shardCursor
	rank uint32 // noRank: the shard is exhausted
}

// noRank is above every entity's rank: ranks are string IDs, and a string
// table holds fewer than noRank strings (sortedUnion, binParseHeader).
const noRank = NoID

// advance moves the head to the shard's next match and, when ranked, reads
// that match's rank.
func (h *head) advance(ranked bool) {
	h.rank = noRank
	if h.next() {
		h.rank = 0
		if ranked {
			h.rank = h.sh.rank[h.sh.runOf[h.at]]
		}
	}
}

// Run is one entity's facts — a run of its shard's fact positions, in
// canonical order — held as a relation of its own. The zero Run is empty.
type Run struct {
	sh *shard
	span
}

// home is the one shard that holds the entity's facts.
func (s *Sharded) home(entity string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[ShardOf(entity, len(s.shards))]
}

// Select opens a cursor over the facts matching p: on the entity's shard
// when p names one, merged over every shard otherwise.
func (s *Sharded) Select(p Pattern) Cursor {
	k := s.names.resolve(p)
	if p.Entity != "" || len(s.shards) == 1 {
		return Cursor{shardCursor: s.home(p.Entity).cursor(p, k)}
	}
	heads := make([]head, len(s.shards))
	for i, sh := range s.shards {
		h := &heads[i]
		h.shardCursor = sh.cursor(p, k)
		h.advance(true)
	}
	return Cursor{heads: heads}
}

// Next steps to the next matching fact and reports whether there was one.
func (c *Cursor) Next() bool {
	if c.heads == nil {
		return c.next()
	}
	best, rank := -1, uint32(noRank)
	for i := range c.heads {
		if r := c.heads[i].rank; r < rank {
			best, rank = i, r
			if c.unordered {
				break
			}
		}
	}
	if best < 0 {
		return false
	}
	h := &c.heads[best]
	c.sh, c.at = h.sh, h.at
	h.advance(!c.unordered)
	return true
}

// Fact makes the fact Next stepped to out of the store's columns. Its
// strings are the store's, and its Ancestors a window of the store's, which
// the caller must not write through. It is defined only after Next has
// returned true.
func (c *Cursor) Fact() Fact { return c.sh.fact(c.at) }

// Unordered releases the canonical order: the consumer has the ordered
// prefix it needed and wants the rest only as a bag. What is left of a
// scatter then comes shard by shard — each shard's matches still in their
// own order, no head compared with another or ranked, exactly how Count
// drains — and is the same multiset the ordered tail would have been. A
// cursor over one shard has nothing to release.
func (c *Cursor) Unordered() { c.unordered = true }

// Run returns the run of the entity whose fact Next last stepped to. It is
// defined only after Next has returned true.
func (c *Cursor) Run() Run {
	return Run{c.sh, c.sh.runs[c.sh.runOf[c.at]]}
}

// IDs returns the string IDs of the entity, attribute and value of the fact
// Next last stepped to, read off the store's columns (rank, attrNo, valueID):
// no fact is made. It is defined only after Next has returned true.
func (c *Cursor) IDs() (entity, attr, value uint32) {
	sh, at := c.sh, c.at
	return sh.rank[sh.runOf[at]], sh.byAttr.ids[sh.attrNo[at]], sh.valueID[at]
}

// Names returns the string table of the store the cursor reads: what its IDs
// and a run's are numbers in. The zero Cursor has none.
func (c *Cursor) Names() Names {
	if c.sh != nil {
		return Names{c.sh.names}
	}
	for i := range c.heads {
		if sh := c.heads[i].sh; sh != nil {
			return Names{sh.names}
		}
	}
	return Names{}
}

// Where opens a read, by number, of the run's facts of the attribute attr and
// the class class whose value is value — verbatim when exact, else through
// the hierarchy, like Pattern.Value. Each is an ID in the store's table
// (Names), or NoID for a field left open. It answers what Select of the store
// answers for the pattern with the run's entity named, in the same canonical
// order, and looks up no name: the attribute narrows the run to a window of
// its attrNo column, and the class and an exact value are compared with the
// classNo and valueID columns. Nothing is allocated.
func (r Run) Where(attr, class, value uint32, exact bool) RunCursor {
	if r.sh == nil {
		return RunCursor{}
	}
	c := shardCursor{sh: r.sh}
	w := r.span
	if attr != NoID {
		w = r.sh.attrRun(w, attr)
	}
	c.pos, c.end = w.lo, w.hi
	if class != NoID {
		c.class = listOf(&r.sh.byClass, class)
	}
	if value != NoID {
		c.value, c.mode = value, generalValue
		if exact {
			c.mode = exactValue
		}
	}
	return RunCursor{c}
}

// RunCursor is a read inside one entity's run by number (Run.Where): Next
// steps to the next match in canonical order, IDs reads it, and Count says how
// many are left. Like a Cursor it is single-consumer; the zero RunCursor is
// empty.
type RunCursor struct{ c shardCursor }

// Next steps to the next match and reports whether there was one.
func (c *RunCursor) Next() bool { return c.c.next() }

// IDs returns the attribute and value IDs of the match Next stepped to.
func (c *RunCursor) IDs() (attr, value uint32) {
	sh, at := c.c.sh, c.c.at
	return sh.byAttr.ids[sh.attrNo[at]], sh.valueID[at]
}

// Count drains the cursor and returns how many matches Next had not yet
// stepped to: with nothing to compare, the size of what is left of the window.
func (c *RunCursor) Count() int { return c.c.count() }

// Count drains the cursor and returns how many matches Next had not yet
// stepped to. Nothing is merged or made: each shard counts its own tail,
// which is what keeps a capped read over many shards cheap (see LookupN).
func (c *Cursor) Count() int {
	n := c.count()
	for i := range c.heads {
		if h := &c.heads[i]; h.rank != noRank {
			n += 1 + h.count()
			h.rank = noRank
		}
	}
	return n
}

// CountEstimate returns an upper bound on the matches for p: the length of
// the entity's run (narrowed to the attribute's, if p names one) when p
// names an entity; otherwise, for each of class, attribute and value that
// p sets, that key's postings summed over the shards, and the smallest of
// those sums; the store size for the wildcard. A shard's cursor walks its
// own shortest list, so a read visits at most this many facts. The number
// does not depend on the shard count, so neither does a datalog plan
// ranked by it. No statistics catalog backs it: the indexes that answer
// the query are themselves the statistic — free, deterministic and never
// stale.
func (s *Sharded) CountEstimate(p Pattern) int {
	k := s.names.resolve(p)
	if p.Entity != "" {
		c := s.home(p.Entity).cursor(p, k)
		return c.size()
	}
	best := -1
	for _, field := range [...]Pattern{{Class: p.Class}, {Attr: p.Attr}, {Value: p.Value}} {
		if field == (Pattern{}) {
			continue
		}
		n := 0
		for _, sh := range s.shards {
			c := sh.cursor(field, k)
			n += c.size()
		}
		if best < 0 || n < best {
			best = n
		}
	}
	if best < 0 {
		return s.nFacts
	}
	return best
}

// Lookup returns every fact matching p, in canonical order; nil when none
// does.
func Lookup(q Querier, p Pattern) []Fact {
	out, _ := LookupN(q, p, 0)
	return out
}

// LookupN returns the first limit facts matching p in canonical order and
// the total number of matches; limit <= 0 means all of them. It backs the
// serving layer's result cap: the response needs the first page and the
// true total, so the tail is counted where it lies — per shard, unmerged —
// and at most limit facts are ever made.
func LookupN(q Querier, p Pattern, limit int) (out []Fact, total int) {
	c := q.Select(p)
	if c.heads == nil && c.isRun() {
		// One run of fact positions is the answer — every entity and
		// (entity, attr) read: one page at its final size, its entity and
		// class names read once a run.
		total = c.size()
		n := total
		if limit > 0 && limit < n {
			n = limit
		}
		if n > 0 {
			out = make([]Fact, n)
			c.sh.facts(out, c.pos)
		}
		return out, total
	}
	for c.Next() {
		out = append(out, c.Fact())
		if len(out) == limit {
			break
		}
	}
	return out, len(out) + c.Count()
}

// Lookup is Lookup over this store.
func (s *Sharded) Lookup(p Pattern) []Fact { return Lookup(s, p) }

// LookupN is LookupN over this store.
func (s *Sharded) LookupN(p Pattern, limit int) ([]Fact, int) { return LookupN(s, p, limit) }

// Entity returns every fact about the entity in canonical order, nil when
// the entity is unknown. The name addresses verbatim: an empty one is a
// name no fact has, not Pattern's wildcard.
func (s *Sharded) Entity(id string) []Fact {
	if id == "" {
		return nil
	}
	return Lookup(s, Pattern{Entity: id})
}

// Triples returns the accepted values for (entity, attr) — all of them,
// with confidences and ancestors, since multi-truth attributes accept
// several values at once. Both names address verbatim, like Entity's.
func (s *Sharded) Triples(entity, attr string) []Fact {
	if entity == "" || attr == "" {
		return nil
	}
	return Lookup(s, Pattern{Entity: entity, Attr: attr})
}
