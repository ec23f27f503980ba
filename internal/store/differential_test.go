package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// nastyNames is the shared pool entities, attributes, values, classes and
// ancestors are all drawn from, so an entity can equal a value, attributes
// are prefixes of one another, and NULs sit where a concatenated
// (entity, attr) key would have put its separator.
var nastyNames = []string{
	"a", "ab", "abc", "a\x00b", "a\x00", "\x00", "b", "b\x00c", "c",
	`q"uo\te`, "new\nline", "é", "Film 1", "Film 12",
}

// nastyFacts generates one small adversarial KB: few names, so keys
// collide in every position; empty classes; ancestor chains (distinct and
// never the value itself, as a hierarchy's are); duplicates. A repeated key
// repeats the whole fact, or only the key: conflicting duplicates, with
// another confidence, other sources or other ancestors, of which the store
// must keep the one the facts decide (compareFacts) in every layout.
func nastyFacts(r *rand.Rand) []Fact {
	name := func() string { return nastyNames[r.Intn(len(nastyNames))] }
	ancestors := func(value string) (anc []string) {
		for _, i := range r.Perm(len(nastyNames))[:r.Intn(4)] {
			if nastyNames[i] != value {
				anc = append(anc, nastyNames[i])
			}
		}
		return anc
	}
	facts := make([]Fact, 0, 64)
	for n := r.Intn(60); len(facts) < n; {
		if len(facts) > 0 && r.Intn(8) == 0 {
			f := facts[r.Intn(len(facts))]
			switch r.Intn(5) {
			case 0:
				f.Confidence = r.Float64()
			case 1:
				f.Sources = r.Intn(5)
			case 2:
				f.Ancestors = ancestors(f.Value)
			case 3:
				f.Ancestors = slices.Clone(f.Ancestors)
				slices.Reverse(f.Ancestors)
			}
			facts = append(facts, f)
			continue
		}
		f := Fact{Entity: name(), Attr: name(), Value: name(), Confidence: r.Float64(), Sources: r.Intn(5)}
		if r.Intn(4) > 0 {
			f.Class = name()
		}
		f.Ancestors = ancestors(f.Value)
		facts = append(facts, f)
	}
	return facts
}

// canonicalCopy is the test's own canonical form of facts, which it holds
// the store to: of every identity key the fact with the highest confidence,
// then the most sources, then the ancestors that compare lowest element by
// element, found by a walk over the facts into a map; then the survivors in
// (entity, attribute, value, class) order. A fact without ancestors has nil
// ones, as the store hands out.
func canonicalCopy(facts []Fact) []Fact {
	type key [4]string
	best := map[key]Fact{}
	for _, f := range facts {
		if len(f.Ancestors) == 0 {
			f.Ancestors = nil
		}
		k := key{f.Entity, f.Attr, f.Value, f.Class}
		b, ok := best[k]
		if !ok || f.Confidence > b.Confidence || f.Confidence == b.Confidence &&
			(f.Sources > b.Sources || f.Sources == b.Sources && slices.Compare(f.Ancestors, b.Ancestors) < 0) {
			best[k] = f
		}
	}
	keys := make([]key, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for f := range a {
			if a[f] != b[f] {
				return a[f] < b[f]
			}
		}
		return false
	})
	out := make([]Fact, len(keys))
	for i, k := range keys {
		out[i] = best[k]
	}
	return out
}

// refSelect is what a pattern selects of canonical facts, by a nested loop:
// every fact, each field the pattern sets, and for a value matched through
// the hierarchy each ancestor. It is the oracle of every read path.
func refSelect(facts []Fact, p Pattern) (out []Fact) {
	for _, f := range facts {
		if p.Entity != "" && f.Entity != p.Entity || p.Attr != "" && f.Attr != p.Attr || p.Class != "" && f.Class != p.Class {
			continue
		}
		if p.Value != "" && f.Value != p.Value {
			generalises := false
			for _, anc := range f.Ancestors {
				if anc == p.Value && !p.Exact {
					generalises = true
				}
			}
			if !generalises {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// absentName is a name no generated KB holds: a pattern field the store's
// table does not find.
const absentName = "absent from every table"

// nastyPattern leaves each field a wildcard or draws it from the pool, from
// the KB's own strings (kb: every name in every role — an entity's as
// attribute, value or class, a value's or an ancestor's as entity, the empty
// class among them), or as absentName. A name in the store's table that one
// shard's index does not list is the common case of a sharded store.
func nastyPattern(r *rand.Rand, kb []string) Pattern {
	pick := func() string {
		switch n := r.Intn(8); {
		case n < 4:
			return ""
		case n < 6 || len(kb) == 0:
			return nastyNames[r.Intn(len(nastyNames))]
		case n < 7:
			return kb[r.Intn(len(kb))]
		default:
			return absentName
		}
	}
	return Pattern{Entity: pick(), Attr: pick(), Class: pick(), Value: pick(), Exact: r.Intn(3) == 0}
}

// bruteEstimate is the contract of CountEstimate by brute force: the
// entity's (or the (entity, attr) pair's) facts when the pattern names an
// entity; otherwise the smallest, over the fields the pattern sets, of the
// number of postings that field alone has — a fact counts once under its
// value and once under each ancestor — and every fact for the wildcard.
// Datalog plans, and through them row order, depend on these exact numbers,
// and they must not depend on the layout.
func bruteEstimate(facts []Fact, q Pattern) int {
	if q.Entity != "" {
		n := 0
		for _, f := range facts {
			if f.Entity == q.Entity && (q.Attr == "" || f.Attr == q.Attr) {
				n++
			}
		}
		return n
	}
	best := len(facts)
	if q.Class != "" {
		n := 0
		for _, f := range facts {
			if f.Class == q.Class {
				n++
			}
		}
		best = min(best, n)
	}
	if q.Attr != "" {
		n := 0
		for _, f := range facts {
			if f.Attr == q.Attr {
				n++
			}
		}
		best = min(best, n)
	}
	if q.Value != "" {
		n := 0
		for _, f := range facts {
			if f.Value == q.Value {
				n++
			}
			for _, anc := range f.Ancestors {
				if anc == q.Value {
					n++
				}
			}
		}
		best = min(best, n)
	}
	return best
}

// delegate is a Querier that is not the store: it hides the concrete type
// behind the five methods, the way any wrapper does.
type delegate struct{ Querier }

// TestReadsMatchScanOnNastyKBs is the differential test of the read
// paths: on generated adversarial KBs, the store holds the test's own
// canonical copy of the input (canonicalCopy), every way of reading a
// pattern returns exactly what a nested loop over that copy selects
// (refSelect), and CountEstimate
// returns the brute-force shortest postings length — on the flat store, on
// sharded layouts (some shards empty), on both after a version-3 snapshot
// round trip, and through a wrapper that is only a Querier. The same goes
// for what a cursor offers beside Next: the entity run it hands out with
// every fact is that entity's Lookup, a pattern read inside the run is the
// store's read of the pattern with the entity named, and a cursor whose
// order was released yields the same facts it would have, in some order.
// And for the two integer columns those reads go by (checkColumns).
func TestReadsMatchScanOnNastyKBs(t *testing.T) {
	kbs := 150
	if testing.Short() {
		kbs = 30
	}
	for seed := 0; seed < kbs; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		facts := nastyFacts(r)
		all := canonicalCopy(facts)
		flat := New(facts)
		layouts := map[string]*Sharded{"flat": flat}
		for _, n := range []int{1, 3, 8} {
			sh := NewSharded(facts, n)
			layouts[fmt.Sprintf("sharded-%d", n)] = sh
			if n == 1 {
				continue
			}
			var buf bytes.Buffer
			if err := sh.WriteBinarySnapshot(&buf); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			back, err := ReadBinarySnapshot(&buf)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			layouts[fmt.Sprintf("v3-sharded-%d", n)] = back
			layouts[fmt.Sprintf("v3-flattened-%d", n)] = NewSharded(back.Facts(), 1)
		}
		patterns := make([]Pattern, 40)
		for i := range patterns {
			patterns[i] = nastyPattern(r, bruteStrings(facts))
		}
		for name, q := range layouts {
			if got := q.Facts(); !factsEqual(got, all) {
				t.Fatalf("seed %d %s: Facts\n got: %+v\nwant: %+v", seed, name, got, all)
			}
			checkColumns(t, fmt.Sprintf("seed %d %s", seed, name), q)
			for i, p := range patterns {
				where := fmt.Sprintf("seed %d %s %#v", seed, name, p)
				checkReads(t, where, q, all, p, 1+r.Intn(4))
				checkRuns(t, where, q, p, patterns[(i+1)%len(patterns)])
				checkUnordered(t, where, q, all, p, r.Intn(4))
			}
		}
	}
}

func checkReads(t *testing.T, where string, q *Sharded, all []Fact, p Pattern, limit int) {
	t.Helper()
	want := refSelect(all, p)
	if pulled := drain(q.Select(p)); !factsEqual(pulled, want) {
		t.Errorf("%s: Select\n got: %+v\nwant: %+v", where, pulled, want)
	}
	if cur := q.Select(p); cur.Count() != len(want) {
		t.Errorf("%s: Count of a fresh cursor, want %d", where, len(want))
	}
	for name, q := range map[string]Querier{"store": q, "delegate": delegate{q}} {
		if got := Lookup(q, p); !factsEqual(got, want) {
			t.Errorf("%s: %s Lookup\n got: %+v\nwant: %+v", where, name, got, want)
		}
		got, total := LookupN(q, p, limit)
		if total != len(want) || !factsEqual(got, want[:min(limit, len(want))]) {
			t.Errorf("%s: %s LookupN(%d) = %+v, total %d\nwant the first of %+v", where, name, limit, got, total, want)
		}
		if got, want := q.CountEstimate(p), bruteEstimate(all, p); got != want {
			t.Errorf("%s: %s CountEstimate = %d, the shortest postings list has %d", where, name, got, want)
		}
	}

	// Entity and Triples address verbatim — an empty name is a name, not
	// a wildcard — so their reference is a plain filter.
	var entity, triples []Fact
	for _, f := range all {
		if f.Entity == p.Entity {
			entity = append(entity, f)
			if f.Attr == p.Attr {
				triples = append(triples, f)
			}
		}
	}
	if got := q.Entity(p.Entity); !factsEqual(got, entity) {
		t.Errorf("%s: Entity\n got: %+v\nwant: %+v", where, got, entity)
	}
	if got := q.Triples(p.Entity, p.Attr); !factsEqual(got, triples) {
		t.Errorf("%s: Triples\n got: %+v\nwant: %+v", where, got, triples)
	}
}

// attrRunRef is the reference attrRun is checked against — the search it
// replaced: a binary search of the run by attribute name, through the
// shard's facts.
func attrRunRef(facts []Fact, run span, attr string) span {
	lo, end := run.lo, run.hi
	for lo < end {
		if mid := int32(uint32(lo+end) >> 1); facts[mid].Attr < attr {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	hi := lo
	for hi < run.hi && facts[hi].Attr == attr {
		hi++
	}
	return span{lo, hi}
}

// shardFacts is every fact of the shard, in position order.
func shardFacts(sh *shard) []Fact {
	out := make([]Fact, sh.len())
	sh.facts(out, 0)
	return out
}

// checkColumns checks the integer columns the hot loops compare in place of
// strings against the strings themselves. Every per-fact column has one
// entry a fact (first one more), and first cuts valueNo into one window a
// fact, one posting for its value and one for each ancestor. Every run of every shard has a
// rank, and over all shards' runs the ranks rise strictly with the entity
// names — so no two tie, which is what lets a scatter merge by rank alone.
// attrNo is byAttr's list number of each fact's attribute. attrRun, which
// reads only attrNo, narrows every run to the facts the search by name
// narrows it to, for every name of the pool and for two no fact carries
// (the empty one, and one absent from every shard); an attribute the entity
// lacks is an empty span wherever in the run either of them puts it.
func checkColumns(t *testing.T, where string, q *Sharded) {
	t.Helper()
	type ranked struct {
		entity string
		rank   uint32
	}
	var all []ranked
	for si, sh := range q.shards {
		n := len(sh.runOf)
		if len(sh.rank) != len(sh.runs) || len(sh.attrNo) != n || len(sh.classNo) != n || len(sh.valueID) != n ||
			len(sh.conf) != n || len(sh.sources) != n || len(sh.first) != n+1 {
			t.Fatalf("%s shard %d: %d ranks for %d runs; for %d facts %d attribute and %d class numbers, %d value IDs, %d confidences, %d source counts, %d firsts",
				where, si, len(sh.rank), len(sh.runs), n, len(sh.attrNo), len(sh.classNo), len(sh.valueID), len(sh.conf), len(sh.sources), len(sh.first))
		}
		facts := shardFacts(sh)
		if sh.first[0] != 0 || sh.first[n] != int32(len(sh.valueNo)) || len(sh.anc) != len(sh.valueNo)-n {
			t.Fatalf("%s shard %d: first runs %d..%d over %d value postings, %d ancestors for %d facts",
				where, si, sh.first[0], sh.first[n], len(sh.valueNo), len(sh.anc), n)
		}
		for i, f := range facts {
			if got := sh.first[i+1] - sh.first[i]; got != 1+int32(len(f.Ancestors)) {
				t.Errorf("%s shard %d: fact %d has %d value postings for %d ancestors", where, si, i, got, len(f.Ancestors))
			}
			if no, ok := sh.byAttr.list(q.names.id(f.Attr)); !ok || sh.attrNo[i] != no {
				t.Errorf("%s shard %d: attrNo[%d] = %d, byAttr lists %q as %d (%v)", where, si, i, sh.attrNo[i], f.Attr, no, ok)
			}
			if no, ok := sh.byClass.list(q.names.id(f.Class)); !ok || sh.classNo[i] != no {
				t.Errorf("%s shard %d: classNo[%d] = %d, byClass lists %q as %d (%v)", where, si, i, sh.classNo[i], f.Class, no, ok)
			}
			if id := q.names.id(f.Value); sh.valueID[i] != id {
				t.Errorf("%s shard %d: valueID[%d] = %d, the table holds %q at %d", where, si, i, sh.valueID[i], f.Value, id)
			}
		}
		for ri, run := range sh.runs {
			all = append(all, ranked{facts[run.lo].Entity, sh.rank[ri]})
			if got := sh.run(sh.rank[ri]); got != run {
				t.Errorf("%s shard %d: the search of rank finds run %v for %q, not %v", where, si, got, facts[run.lo].Entity, run)
			}
			for _, attr := range append([]string{"", "absent everywhere"}, nastyNames...) {
				got, want := sh.attrRun(run, q.names.id(attr)), attrRunRef(facts, run, attr)
				if got != want && (got.lo != got.hi || want.lo != want.hi) {
					t.Errorf("%s shard %d: attrRun(%v, %q) = %v, the search by name finds %v", where, si, run, attr, got, want)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].entity < all[j].entity })
	for i := 1; i < len(all); i++ {
		if all[i].rank <= all[i-1].rank {
			t.Errorf("%s: rank %d of %q is not above rank %d of %q", where, all[i].rank, all[i].entity, all[i-1].rank, all[i-1].entity)
		}
	}
}

// drain makes everything the cursor has left, in its order.
func drain(c Cursor) (out []Fact) {
	for c.Next() {
		out = append(out, c.Fact())
	}
	return out
}

// checkRuns reads p and, with every fact the cursor yields, checks the
// numbers it reads the fact by (IDs, in its Names) and takes the run it hands
// out: the run is the fact's entity — all of its facts, whatever p selected of
// them — and a read inside it by number (Run.Where) finds, in order, exactly
// what the store reads for inside with that entity named, whether or not
// inside names one.
func checkRuns(t *testing.T, where string, q *Sharded, p, inside Pattern) {
	t.Helper()
	cur := q.Select(p)
	names := cur.Names()
	id := func(field string) (uint32, bool) {
		if field == "" {
			return NoID, true
		}
		return names.ID(field)
	}
	attr, okA := id(inside.Attr)
	class, okC := id(inside.Class)
	value, okV := id(inside.Value)
	for cur.Next() {
		f := cur.Fact()
		if e, a, v := cur.IDs(); names.Name(e) != f.Entity || names.Name(a) != f.Attr || names.Name(v) != f.Value {
			t.Errorf("%s: IDs of %+v name %q, %q, %q", where, f, names.Name(e), names.Name(a), names.Name(v))
		}
		run := cur.Run()
		if got, want := drainIDs(run.Where(NoID, NoID, NoID, false), names), pairsOf(Lookup(q, Pattern{Entity: f.Entity})); !slices.Equal(got, want) {
			t.Errorf("%s: run handed out with %+v\n got: %q\nwant: %q", where, f, got, want)
		}
		named := inside
		named.Entity = f.Entity
		want := pairsOf(Lookup(q, named))
		if !okA || !okC || !okV {
			// A name the table does not hold: no fact matches it.
			if len(want) != 0 {
				t.Errorf("%s: %#v names a string the table lacks and still matches %q", where, inside, want)
			}
			continue
		}
		if got := drainIDs(run.Where(attr, class, value, inside.Exact), names); !slices.Equal(got, want) {
			t.Errorf("%s: %#v inside the run of %q\n got: %q\nwant: %q", where, inside, f.Entity, got, want)
		}
		if c := run.Where(attr, class, value, inside.Exact); c.Count() != len(want) {
			t.Errorf("%s: %#v inside the run of %q: Count of a fresh cursor, want %d", where, inside, f.Entity, len(want))
		}
	}
	if c := (Run{}).Where(attr, class, value, inside.Exact); c.Next() || c.Count() != 0 {
		t.Errorf("%s: the zero Run yields a match", where)
	}
}

// drainIDs reads out everything the cursor has left, in its order, as
// (attribute, value) names.
func drainIDs(c RunCursor, names Names) (out [][2]string) {
	for c.Next() {
		a, v := c.IDs()
		out = append(out, [2]string{names.Name(a), names.Name(v)})
	}
	return out
}

// pairsOf is the facts' (attribute, value) names, in their order.
func pairsOf(facts []Fact) (out [][2]string) {
	for _, f := range facts {
		out = append(out, [2]string{f.Attr, f.Value})
	}
	return out
}

// checkUnordered takes the first facts of p in order, releases the order,
// and requires of the rest what a consumer that only counts relies on: the
// same facts as the ordered tail, as a multiset, and the same Count.
func checkUnordered(t *testing.T, where string, q *Sharded, all []Fact, p Pattern, ordered int) {
	t.Helper()
	want := refSelect(all, p)
	ordered = min(ordered, len(want))
	open := func() Cursor {
		c := q.Select(p)
		for i := 0; i < ordered; i++ {
			if !c.Next() {
				t.Fatalf("%s: the stream ends at ordered fact %d, want %+v", where, i, want[i])
			}
			if f := c.Fact(); !factsEqual([]Fact{f}, want[i:i+1]) {
				t.Fatalf("%s: ordered fact %d is %+v, want %+v", where, i, f, want[i])
			}
		}
		c.Unordered()
		return c
	}
	if c := open(); c.Count() != len(want)-ordered {
		t.Errorf("%s: Count after %d facts and Unordered, want %d", where, ordered, len(want)-ordered)
	}
	var tail []Fact
	c := open()
	for c.Next() {
		f := c.Fact()
		if got := drainIDs(c.Run().Where(NoID, NoID, NoID, false), c.Names()); !slices.Equal(got, pairsOf(Lookup(q, Pattern{Entity: f.Entity}))) {
			t.Errorf("%s: run handed out after Unordered with %+v is not its entity's", where, f)
		}
		tail = append(tail, f)
	}
	sort.Slice(tail, func(i, j int) bool { return compareKeys(&tail[i], &tail[j]) < 0 })
	if !factsEqual(tail, want[ordered:]) {
		t.Errorf("%s: after %d facts and Unordered\n got: %+v\nwant: %+v, in any order", where, ordered, tail, want[ordered:])
	}
	if c.Next() || c.Count() != 0 {
		t.Errorf("%s: an exhausted unordered cursor yields more", where)
	}
}

// TestLookupNCopiesAtMostLimit is the per-shard-limit property of the
// cursor design: a capped read that scatters over every shard, with far
// more matches than the cap, merges and makes only the page — the tail is
// counted inside each shard — and still returns the exact total. A read of
// one run — an entity, an (entity, attribute) pair — makes its page in one
// allocation, whatever the limit: the facts' ancestors are windows of the
// store's, not copies.
func TestLookupNCopiesAtMostLimit(t *testing.T) {
	const n, limit = 20000, 5
	facts := make([]Fact, n, n+40)
	for i := range facts {
		facts[i] = Fact{Entity: fmt.Sprintf("e%05d", i), Class: "c", Attr: "a", Value: fmt.Sprintf("v%d", i%7), Ancestors: []string{"root"}}
	}
	for i := 0; i < 40; i++ {
		facts = append(facts, Fact{Entity: "run", Class: "c", Attr: fmt.Sprintf("a%d", i%3), Value: fmt.Sprintf("v%d", i), Ancestors: []string{"mid", "root"}})
	}
	all := canonicalCopy(facts)
	for _, shards := range []int{1, 8} {
		s := NewSharded(facts, shards)
		for _, p := range []Pattern{{Attr: "a"}, {Class: "c", Value: "root"}, {Value: "v3"}, {}} {
			want := refSelect(all, p)
			var got []Fact
			var total int
			allocs := testing.AllocsPerRun(10, func() { got, total = s.LookupN(p, limit) })
			if total != len(want) || !factsEqual(got, want[:limit]) {
				t.Errorf("%d shards %+v: LookupN = %d facts, total %d; want the first %d of %d", shards, p, len(got), total, limit, len(want))
			}
			// The page grows 1, 2, 4, 8 facts; a scatter adds its heads.
			if cap(got) > 2*limit || allocs > 5 {
				t.Errorf("%d shards %+v: LookupN(%d) over %d matches made %.0f allocations and a page of cap %d", shards, p, limit, len(want), allocs, cap(got))
			}
		}
		for _, p := range []Pattern{{Entity: "run"}, {Entity: "run", Attr: "a1"}} {
			want := refSelect(all, p)
			for _, lim := range []int{0, limit} {
				var got []Fact
				var total int
				allocs := testing.AllocsPerRun(10, func() { got, total = s.LookupN(p, lim) })
				page := want
				if lim > 0 {
					page = want[:lim]
				}
				if total != len(want) || !factsEqual(got, page) {
					t.Errorf("%d shards %+v: LookupN(%d) = %+v, total %d; want the first of %+v", shards, p, lim, got, total, want)
				}
				if allocs != 1 || cap(got) != len(page) {
					t.Errorf("%d shards %+v: LookupN(%d) made %.0f allocations and a page of cap %d for %d facts, want 1 of %d", shards, p, lim, allocs, cap(got), len(page), len(page))
				}
			}
		}
	}
}

// TestDuplicateSurvivorIsTheFactsChoice: of facts that share an identity
// key and differ in confidence, sources or ancestors, the store keeps the
// one the facts decide — the test's own canonicalCopy — on 1, 3 and 8
// shards and from a shuffled input alike. The survivor used to be the
// unstable sort's pick, so New and NewSharded kept different facts.
func TestDuplicateSurvivorIsTheFactsChoice(t *testing.T) {
	conflicts := 0
	for seed := 0; seed < 200; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		facts := nastyFacts(r)
		want := canonicalCopy(facts)
		keys := map[[4]string]Fact{}
		for _, f := range facts {
			k := [4]string{f.Entity, f.Attr, f.Value, f.Class}
			if g, ok := keys[k]; ok && !factsEqual(canonicalCopy([]Fact{f}), canonicalCopy([]Fact{g})) {
				conflicts++
			}
			keys[k] = f
		}
		shuffled := slices.Clone(facts)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, n := range []int{1, 3, 8} {
			for name, in := range map[string][]Fact{"input": facts, "shuffled": shuffled} {
				if got := NewSharded(in, n).Facts(); !factsEqual(got, want) {
					t.Errorf("seed %d, %d shards, %s: kept\n%+v\nwant\n%+v", seed, n, name, got, want)
				}
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("the nasty KBs hold no conflicting duplicate")
	}
}

// TestShardHoldsNoPointerPerFact: a shard is its columns, and no per-fact
// column holds a pointer for the collector to scan — no Fact, no string, no
// slice. The one column of strings, anc, holds an ancestor posting's name,
// not a fact's: it is as long as the value postings less the facts.
func TestShardHoldsNoPointerPerFact(t *testing.T) {
	var check func(path string, t reflect.Type)
	check = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch name := path + f.Name; {
			case f.Type.Kind() == reflect.Struct:
				check(name+".", f.Type) // an index's columns too
			case f.Type.Kind() == reflect.Slice && holdsPointer(f.Type.Elem()) && name != "anc":
				t.Errorf("shard.%s is a slice of %v, which holds a pointer", name, f.Type.Elem())
			}
		}
	}
	check("", reflect.TypeOf(shard{}))
	s := NewSharded(orderFacts(rand.New(rand.NewSource(1))), 1).shards[0]
	if len(s.anc) != len(s.valueNo)-s.len() || len(s.anc) == 0 {
		t.Errorf("anc holds %d names for %d value postings of %d facts", len(s.anc), len(s.valueNo), s.len())
	}
}

// holdsPointer reports whether a value of type t holds a pointer.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return holdsPointer(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestCursorWalksShortestList pins the cost side of a read, which
// TestReadsMatchScanOnNastyKBs cannot see: the facts a cursor visits before
// filtering are the shortest postings list among the fields the pattern
// sets — exactly CountEstimate on a flat store, at most CountEstimate summed
// over a sharded one's shards (each shard picks its own shortest list) —
// whatever order the fields come in.
func TestCursorWalksShortestList(t *testing.T) {
	var facts []Fact
	for i := 0; i < 40; i++ {
		f := Fact{Entity: fmt.Sprintf("e%02d", i), Class: "big", Attr: "common", Value: "v", Ancestors: []string{"root"}}
		if i%10 == 0 {
			f.Attr = "rare"
		}
		if i == 7 {
			f.Value = "needle"
		}
		if i >= 36 {
			f.Class = "small"
		}
		facts = append(facts, f)
	}
	flat, sharded := New(facts), NewSharded(facts, 4)
	for _, tc := range []struct {
		p    Pattern
		want int
	}{
		{Pattern{Class: "big"}, 36},
		{Pattern{Class: "big", Attr: "rare"}, 4},      // attr list, not the 36-fact class list
		{Pattern{Class: "small", Attr: "common"}, 4},  // class list, not the 36-fact attr list
		{Pattern{Attr: "common", Value: "needle"}, 1}, // value list, not the attr list
		{Pattern{Class: "big", Attr: "common", Value: "needle", Exact: true}, 1},
		{Pattern{Class: "big", Value: "root"}, 36}, // the ancestor's list holds all 40
		{Pattern{Attr: "rare", Value: "absent"}, 0},
		{Pattern{}, 40},
	} {
		c := flat.shards[0].cursor(tc.p, flat.names.resolve(tc.p))
		if got := c.size(); got != tc.want || got != flat.CountEstimate(tc.p) {
			t.Errorf("%+v: flat cursor visits %d facts, CountEstimate %d, want %d", tc.p, got, flat.CountEstimate(tc.p), tc.want)
		}
		if got := sharded.CountEstimate(tc.p); got != tc.want {
			t.Errorf("%+v: sharded CountEstimate = %d, want the flat store's %d", tc.p, got, tc.want)
		}
	}

	for seed := 0; seed < 50; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		facts := nastyFacts(r)
		flat, sharded := New(facts), NewSharded(facts, 3)
		for i := 0; i < 40; i++ {
			p := nastyPattern(r, bruteStrings(facts))
			want := bruteEstimate(flat.Facts(), p)
			c := flat.shards[0].cursor(p, flat.names.resolve(p))
			if got := c.size(); got != want {
				t.Errorf("seed %d %#v: flat cursor visits %d facts, the shortest list has %d", seed, p, got, want)
			}
			visits := 0
			k := sharded.names.resolve(p)
			for _, sh := range sharded.shards {
				c := sh.cursor(p, k)
				visits += c.size()
			}
			if p.Entity != "" {
				// One shard answers; the others are never opened.
				c := sharded.shards[ShardOf(p.Entity, 3)].cursor(p, k)
				visits = c.size()
			}
			if est := sharded.CountEstimate(p); visits > est || est != want {
				t.Errorf("seed %d %#v: sharded cursors visit %d facts, CountEstimate %d, the shortest list has %d", seed, p, visits, est, want)
			}
		}
	}
}

// TestTriplesNULInNames is the regression for the concatenated
// (entity, attr) key the store used to index by: ("a", "b\x00c") and
// ("a\x00b", "c") both keyed to "a\x00b\x00c", so each read the other's
// facts.
func TestTriplesNULInNames(t *testing.T) {
	for _, q := range []*Sharded{
		New([]Fact{{Entity: "a\x00b", Attr: "c", Value: "v"}}),
		NewSharded([]Fact{{Entity: "a\x00b", Attr: "c", Value: "v"}}, 4),
	} {
		if got := q.Triples("a", "b\x00c"); len(got) != 0 {
			t.Errorf(`%T: Triples("a", "b\x00c") = %+v, want nothing: those are the facts of ("a\x00b", "c")`, q, got)
		}
		if got := q.Lookup(Pattern{Entity: "a", Attr: "b\x00c"}); len(got) != 0 {
			t.Errorf(`%T: Lookup(entity "a", attr "b\x00c") = %+v, want nothing`, q, got)
		}
		if got := q.Triples("a\x00b", "c"); len(got) != 1 {
			t.Errorf(`%T: Triples("a\x00b", "c") = %+v, want its one fact`, q, got)
		}
	}
}

// TestShardOfIsFNV1a pins ShardOf to the hash every existing snapshot was
// segmented with — hash/fnv's 64-bit FNV-1a — and to costing no heap.
func TestShardOfIsFNV1a(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		h := fnv.New64a()
		h.Write(b)
		for _, n := range []int{1, 2, 8, 13, 64} {
			if got, want := ShardOf(string(b), n), int(h.Sum64()%uint64(n)); got != want {
				t.Fatalf("ShardOf(%q, %d) = %d, hash/fnv says %d", b, n, got, want)
			}
		}
	}
	if got := ShardOf("Casablanca", 8); got != 0 {
		t.Errorf(`ShardOf("Casablanca", 8) = %d, want 0`, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { ShardOf("Alladel T19", 8) }); allocs != 0 {
		t.Errorf("ShardOf allocates %.0f times a call, want 0", allocs)
	}
}
