package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// namedRead is a RunRead by names: "" leaves a field open.
type namedRead struct {
	attr, class, value string
	exact              bool
}

// productCase spells one CountProducts case out of spec bytes over a KB whose
// strings are kb: the cursor's pattern (each field open, one of kb's strings
// or a name no table holds), how many of its matches are taken in order
// first, whether the order is then released, and one to four reads, each
// field open or one of kb's strings, so that every read is one the store's
// table can number.
func productCase(kb []string, spec []byte) (p Pattern, ordered int, unordered bool, reads []namedRead) {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	pick := func(absent bool) string {
		n := next()
		switch {
		case n%3 == 0 || len(kb) == 0:
			return ""
		case absent && n%11 == 1:
			return absentName
		}
		return kb[n%len(kb)]
	}
	p = Pattern{Entity: pick(true), Attr: pick(true), Class: pick(true), Value: pick(true), Exact: next()%3 == 0}
	if next()%4 == 0 { // most cases read every entity's run
		p.Entity = ""
	}
	flags := next()
	ordered, unordered = flags%4, flags&4 != 0
	for n := 1 + next()%4; n > 0; n-- {
		rd := namedRead{attr: pick(false), class: pick(false), value: pick(false), exact: next()%2 == 0}
		if next()%3 > 0 && len(kb) > 0 { // most reads name an attribute, as a join's do
			rd.attr = kb[next()%len(kb)]
		}
		reads = append(reads, rd)
	}
	return p, ordered, unordered, reads
}

// productShapes counts the shapes a case covered that a merge of sorted lists
// can get wrong, by the facts alone.
type productShapes struct {
	classChanges, general, exactSkips, multiValued, sameRun, shardLacks int
}

// checkProducts takes ordered matches of p in order, releases the order when
// unordered, and holds CountProducts of what is left to brute force over the
// canonical facts: for every match left, the product of the reads' refSelect
// counts with the match's entity named, and the reads until the first that
// counts nothing.
func checkProducts(t *testing.T, where string, q *Sharded, all []Fact, p Pattern, ordered int, unordered bool, reads []namedRead, shapes *productShapes) {
	t.Helper()
	c := q.Select(p)
	for i := 0; i < ordered; i++ {
		c.Next()
	}
	if unordered {
		c.Unordered()
	}
	names := q.names
	runReads := make([]RunRead, len(reads))
	for i, rd := range reads {
		id := func(name string) uint32 {
			if name == "" {
				return NoID
			}
			return names.id(name)
		}
		runReads[i] = RunRead{Attr: id(rd.attr), Class: id(rd.class), Value: id(rd.value), Exact: rd.exact}
	}
	got, err := c.CountProducts(context.Background(), runReads)

	matches := refSelect(all, p)
	matches = matches[min(ordered, len(matches)):]
	var want Products
	for i, f := range matches {
		if i > 0 && matches[i-1].Entity == f.Entity {
			shapes.sameRun++
		}
		product := 1
		for _, rd := range reads {
			want.Reads++
			in := refSelect(all, Pattern{Entity: f.Entity, Attr: rd.attr, Class: rd.class, Value: rd.value, Exact: rd.exact})
			shapes.count(all, f.Entity, rd, len(q.shards))
			if product *= len(in); product == 0 {
				break
			}
		}
		want.Total += product
	}
	if err != nil || got != want {
		t.Errorf("%s: %d ordered, unordered %v, reads %+v: CountProducts = %+v, %v; brute force %+v over %d matches",
			where, ordered, unordered, reads, got, err, want, len(matches))
	}
	if c.Next() || c.Count() != 0 {
		t.Errorf("%s: a cursor CountProducts drained yields more", where)
	}
}

// count records the shapes the read meets in the entity's run.
func (s *productShapes) count(all []Fact, entity string, rd namedRead, shards int) {
	var run []Fact
	home := false
	for _, f := range all {
		if f.Entity == entity {
			run = append(run, f)
		}
		home = home || f.Attr == rd.attr && ShardOf(f.Entity, shards) == ShardOf(entity, shards)
	}
	if rd.attr != "" && !home {
		s.shardLacks++
	}
	of := 0
	for _, f := range run {
		if f.Class != run[0].Class && rd.class != "" {
			s.classChanges++
		}
		if f.Attr == rd.attr {
			of++
		}
		for _, anc := range f.Ancestors {
			if anc == rd.value && f.Value != rd.value {
				if rd.exact {
					s.exactSkips++
				} else {
					s.general++
				}
			}
		}
	}
	if of > 1 {
		s.multiValued++
	}
}

// TestCountProductsMatchesBruteForce is the differential test of the merged
// count: on generated adversarial KBs, on one shard and on eight, every case
// productCase spells from seeded bytes is held to the nested loop
// (checkProducts), and over all of them every shape a merge can get wrong
// is met: a class that changes inside a run, a value matched through an
// ancestor (and one an exact read must not match that way), an attribute
// with several facts in one run, several matches left in one run, and a
// read whose attribute the match's shard lists nothing under.
func TestCountProductsMatchesBruteForce(t *testing.T) {
	kbs := 150
	if testing.Short() {
		kbs = 30
	}
	var shapes productShapes
	for seed := 0; seed < kbs; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		facts := nastyFacts(r)
		all := canonicalCopy(facts)
		kb := bruteStrings(facts)
		spec := make([]byte, 32)
		for _, n := range []int{1, 8} {
			q := NewSharded(facts, n)
			for i := 0; i < 40; i++ {
				r.Read(spec)
				p, ordered, unordered, reads := productCase(kb, spec)
				checkProducts(t, fmt.Sprintf("seed %d, %d shards, %#v", seed, n, p), q, all, p, ordered, unordered, reads, &shapes)
			}
		}
	}
	t.Logf("shapes met: %+v", shapes)
	if shapes.classChanges == 0 || shapes.general == 0 || shapes.exactSkips == 0 || shapes.multiValued == 0 || shapes.sameRun == 0 || shapes.shardLacks == 0 {
		t.Errorf("a shape was never met: %+v", shapes)
	}
	var zero Cursor
	if got, err := zero.CountProducts(context.Background(), []RunRead{{Attr: NoID, Class: NoID, Value: NoID}}); got != (Products{}) || err != nil {
		t.Errorf("the zero Cursor counts %+v, %v", got, err)
	}
}

// FuzzCountProductsMatchesBruteForce runs checkProducts on the KB nastyFacts
// makes of the seed and the case productCase spells from the bytes, on one
// shard and on eight. Run the finder with:
//
//	go test -run '^$' -fuzz FuzzCountProductsMatchesBruteForce ./internal/store
func FuzzCountProductsMatchesBruteForce(f *testing.F) {
	f.Add(int64(1), []byte{1, 0, 0, 0, 0, 4, 2, 1, 1, 1, 1, 1, 5})
	f.Add(int64(7), []byte{0, 0, 0, 0, 3, 0, 3, 2, 0, 0, 1, 1, 4, 2, 5, 7, 1, 1, 2})
	f.Add(int64(42), []byte{2, 5, 0, 0, 0, 6, 1, 0, 3, 4, 0, 1, 9})
	f.Fuzz(func(t *testing.T, seed int64, spec []byte) {
		facts := nastyFacts(rand.New(rand.NewSource(seed)))
		all := canonicalCopy(facts)
		p, ordered, unordered, reads := productCase(bruteStrings(facts), spec)
		var shapes productShapes
		for _, n := range []int{1, 8} {
			checkProducts(t, fmt.Sprintf("seed %d, %d shards, %#v", seed, n, p), NewSharded(facts, n), all, p, ordered, unordered, reads, &shapes)
		}
	})
}

// TestCountProductsPollsAndRefuses: the merged count polls its context every
// pollEvery matches, so a cancelled one ends it; a product or a sum that does
// not fit in an int is ErrCountOverflow; and more reads than the count keeps
// on its stack are counted the same.
func TestCountProductsPollsAndRefuses(t *testing.T) {
	var facts []Fact
	for i := 0; i < 3*pollEvery; i++ {
		facts = append(facts, Fact{Entity: fmt.Sprintf("e%05d", i), Attr: "a", Value: "x"}, Fact{Entity: fmt.Sprintf("e%05d", i), Attr: "b", Value: "y"})
	}
	for v := 0; v < 20; v++ {
		facts = append(facts, Fact{Entity: "many", Attr: "c", Value: fmt.Sprintf("v%02d", v)})
	}
	for _, n := range []int{1, 8} {
		q := NewSharded(facts, n)
		b := q.names.id("b")
		c := q.names.id("c")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cur := q.Select(Pattern{Attr: "a"})
		if _, err := cur.CountProducts(ctx, []RunRead{{Attr: b, Class: NoID, Value: NoID}}); !errors.Is(err, context.Canceled) {
			t.Errorf("%d shards: %d matches under a cancelled context: %v, want context.Canceled", n, 3*pollEvery, err)
		}

		star := func(k int, attr uint32) (Products, error) {
			reads := make([]RunRead, k)
			for i := range reads {
				reads[i] = RunRead{Attr: attr, Class: NoID, Value: NoID}
			}
			cur := q.Select(Pattern{Entity: "many"})
			return cur.CountProducts(context.Background(), reads)
		}
		// 20 matches of a 20¹⁴ product is 20¹⁵: over an int, like 20¹⁵.
		if got, err := star(13, c); err != nil || got.Total != 20*20*20*20*20*20*20*20*20*20*20*20*20*20 || got.Reads != 20*13 {
			t.Errorf("%d shards: 20 matches of 13 reads of 20: %+v, %v", n, got, err)
		}
		for _, k := range []int{14, 15} {
			if got, err := star(k, c); !errors.Is(err, ErrCountOverflow) {
				t.Errorf("%d shards: 20 matches of %d reads of 20: %+v, %v; want ErrCountOverflow", n, k, got, err)
			}
		}
		// Seventeen reads of the one b of each a: one each.
		reads := make([]RunRead, 17)
		for i := range reads {
			reads[i] = RunRead{Attr: b, Class: NoID, Value: NoID}
		}
		cur = q.Select(Pattern{Attr: "a"})
		if got, err := cur.CountProducts(context.Background(), reads); err != nil || got.Total != 3*pollEvery || got.Reads != 17*3*pollEvery {
			t.Errorf("%d shards: 17 reads of the b of each of %d entities: %+v, %v", n, 3*pollEvery, got, err)
		}
	}
}

// TestCountProductsDoesNotAllocate: a merged count of up to sixteen reads
// allocates nothing, whatever the shard count.
func TestCountProductsDoesNotAllocate(t *testing.T) {
	var facts []Fact
	for i := 0; i < 200; i++ {
		e := fmt.Sprintf("e%03d", i)
		facts = append(facts, Fact{Entity: e, Attr: "a", Value: "x", Class: "K"}, Fact{Entity: e, Attr: "b", Value: "y", Class: "K"})
	}
	for _, n := range []int{1, 8} {
		q := NewSharded(facts, n)
		b := q.names.id("b")
		k := q.names.id("K")
		reads := make([]RunRead, 16)
		for i := range reads {
			reads[i] = RunRead{Attr: b, Class: k, Value: NoID}
		}
		ctx := context.Background()
		if allocs := testing.AllocsPerRun(20, func() {
			cur := q.Select(Pattern{Attr: "a"})
			if got, err := cur.CountProducts(ctx, reads); err != nil || got.Total != 200 {
				t.Fatalf("%+v, %v", got, err)
			}
		}) - testing.AllocsPerRun(20, func() { _ = q.Select(Pattern{Attr: "a"}) }); allocs != 0 {
			t.Errorf("%d shards: CountProducts of 16 reads allocates %.0f times", n, allocs)
		}
	}
}
