package entitydisc

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// This file holds Discover to the rules the package's doc comments state:
// which mentions link and to what, which merge, which become entities, and
// what an entity and its statements carry.

// linkTarget is the known name a mention links to: itself if it is known,
// else the first non-empty known name in sorted order within linkDistance
// edits of it or carrying it, four bytes or more, as a word-boundary prefix
// or suffix; "" for none.
func linkTarget(name string, known []string) string {
	if slices.Contains(known, name) {
		return name
	}
	for _, k := range known {
		if k == "" {
			continue
		}
		affix := len(name) >= 4 && (strings.HasPrefix(k, name+" ") || strings.HasSuffix(k, " "+name))
		if affix || extract.WithinDistance(name, k, linkDistance) {
			return k
		}
	}
	return ""
}

// components splits names into the connected components of nearDuplicate,
// each sorted.
func components(names []string) [][]string {
	var groups [][]string
	done := map[string]bool{}
	for _, n := range names {
		if done[n] {
			continue
		}
		done[n] = true
		group := []string{n}
		for i := 0; i < len(group); i++ {
			for _, m := range names {
				if !done[m] && nearDuplicate(group[i], m) {
					done[m] = true
					group = append(group, m)
				}
			}
		}
		slices.Sort(group)
		groups = append(groups, group)
	}
	return groups
}

// checkDiscover holds Discover(facts, idx) to its rules and returns it:
//
//   - any order of the facts gives the same result;
//   - every trimmed, non-empty mention links to its linkTarget, or stays
//     unlinked when it has none; an empty known name is no link target, so
//     a mention within reach of it and of another known name links to the
//     other;
//   - the unlinked mentions fall into the connected components of
//     nearDuplicate; each component is named by its most-mentioned name,
//     ties to the smaller, and becomes an entity when it has minSupport
//     facts or more, else it counts as rejected;
//   - an entity's support, class (the most frequent, ties to the smaller),
//     sources, aliases and values are those of its component's facts, and
//     the entities run by support, then name;
//   - the statements are each entity's values × its sources, in order.
func checkDiscover(t testing.TB, r *rand.Rand, facts []extract.EntityFact, idx *extract.EntityIndex) *Result {
	t.Helper()
	res := Discover(facts, idx)
	shuffled := slices.Clone(facts)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if again := Discover(shuffled, idx); !reflect.DeepEqual(again, res) {
		t.Fatalf("the facts in another order give\n %+v\nnot\n %+v", again, res)
	}

	linked := map[string]string{}
	mentions := map[string][]extract.EntityFact{} // unlinked name -> its facts
	for _, f := range facts {
		if f.Name = strings.TrimSpace(f.Name); f.Name == "" {
			continue
		} else if target := linkTarget(f.Name, idx.Names()); target != "" {
			linked[f.Name] = target
		} else {
			mentions[f.Name] = append(mentions[f.Name], f)
		}
	}
	if !reflect.DeepEqual(res.Linked, linked) {
		t.Fatalf("over known names %q: linked %v, want %v", idx.Names(), res.Linked, linked)
	}

	var want []*Entity
	var stmts []rdf.Statement
	rejected := 0
	var names []string
	for n := range mentions {
		names = append(names, n)
	}
	for _, group := range components(names) {
		e := &Entity{Name: group[0]}
		classes := map[string]int{}
		var values [][2]string
		for _, n := range group {
			if len(mentions[n]) > len(mentions[e.Name]) {
				e.Name = n
			}
			for _, f := range mentions[n] {
				e.Support++
				classes[f.Class]++
				e.Sources = append(e.Sources, f.Source)
				if f.Attr != "" && f.Value != "" {
					values = append(values, [2]string{f.Attr, f.Value})
				}
			}
		}
		if e.Support < minSupport {
			rejected++
			continue
		}
		for class, n := range classes {
			if c := classes[e.Class]; n > c || n == c && class < e.Class {
				e.Class = class
			}
		}
		slices.Sort(e.Sources)
		e.Sources = slices.Compact(e.Sources)
		for _, n := range group {
			if n != e.Name {
				e.Aliases = append(e.Aliases, n)
			}
		}
		slices.SortFunc(values, func(a, b [2]string) int {
			return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
		})
		for _, v := range slices.Compact(values) {
			if k := len(e.Values) - 1; k >= 0 && e.Values[k].Attr == v[0] {
				e.Values[k].Values = append(e.Values[k].Values, v[1])
			} else {
				e.Values = append(e.Values, kb.AttrValues{Attr: v[0], Values: []string{v[1]}})
			}
		}
		want = append(want, e)
	}
	slices.SortFunc(want, func(a, b *Entity) int {
		return cmp.Or(b.Support-a.Support, strings.Compare(a.Name, b.Name))
	})
	if res.Rejected != rejected || !reflect.DeepEqual(res.Entities, want) {
		t.Fatalf("%d rejected and entities\n %+v\nwant %d and\n %+v", res.Rejected, res.Entities, rejected, want)
	}
	for _, e := range want {
		for _, row := range e.Values {
			for _, v := range row.Values {
				for _, src := range e.Sources {
					stmts = append(stmts, rdf.S(rdf.T(extract.EntityIRI(e.Name), extract.AttrIRI(row.Attr), rdf.Literal(v)),
						rdf.Provenance{Source: src, Extractor: "entitydisc"}, 0.6))
				}
			}
		}
	}
	if got := res.AppendStatements(nil, 0.6); !slices.Equal(got, stmts) || res.NumStatements() != len(stmts) {
		t.Fatalf("statements\n %v\nwant\n %v", got, stmts)
	}
	return res
}

// indexOf is an entity index over the given known names.
func indexOf(names []string) *extract.EntityIndex {
	return extract.NewEntityIndex(&kb.SourceKB{CoveredEntities: map[string][]string{"Film": names}})
}

// genMention spells a mention of one of the known names or of a new one: the
// name itself, a one-rune typo (a multi-byte substitution among them), a
// word-boundary prefix or suffix (above and below 4 bytes), a one-token
// extension, the name padded with whitespace, or an empty one.
func genMention(r *rand.Rand, known, novel []string) string {
	words := []string{"Nights", "Enel", "24", "Jean-Luc", "Zürich", "of", "Ab", "Leo", "Ōsaka"}
	base := novel[r.Intn(len(novel))]
	if r.Intn(2) == 0 {
		base = known[r.Intn(len(known))]
	}
	switch r.Intn(8) {
	case 0: // typo
		rs := []rune(base)
		if len(rs) == 0 {
			return base
		}
		i := r.Intn(len(rs))
		switch r.Intn(3) {
		case 0:
			rs[i] = []rune("x–é")[r.Intn(3)]
		case 1:
			rs = append(rs[:i], rs[i+1:]...)
		default:
			rs = append(rs[:i], append([]rune{'y'}, rs[i:]...)...)
		}
		return string(rs)
	case 1: // word-boundary prefix or suffix
		fs := strings.Fields(base)
		if len(fs) < 2 {
			return base
		}
		k := 1 + r.Intn(len(fs)-1)
		if r.Intn(2) == 0 {
			return strings.Join(fs[:k], " ")
		}
		return strings.Join(fs[k:], " ")
	case 2: // one more token
		return base + " " + words[r.Intn(len(words))]
	case 3:
		return []string{" ", "\t", "  \n"}[r.Intn(3)] + base + []string{"", " ", "\t"}[r.Intn(3)]
	case 4:
		return []string{"", "  "}[r.Intn(2)]
	default:
		return base
	}
}

// genNames draws n names of one to three words, so that names share words,
// extend one another and differ by a rune, and affixes of three, four and
// more bytes occur.
func genNames(r *rand.Rand, n int) []string {
	words := []string{"Zanzibar", "Nights", "Night", "Enel", "24", "University", "of", "Jean-Luc", "Jean–Luc", "Zürich", "Ab", "Leo", "Ōsaka", "Film", "Film 1"}
	out := make([]string, n)
	for i := range out {
		fs := make([]string, 1+r.Intn(3))
		for j := range fs {
			fs[j] = words[r.Intn(len(words))]
		}
		out[i] = strings.Join(fs, " ")
	}
	return out
}

// TestDiscoverMatchesReference holds Discover and Result.AppendStatements to
// their rules on generated mentions of known and new names, repeated across
// sources, classes tied and not.
func TestDiscoverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	classes := []string{"Film", "Book", "Person", ""}
	attrs := []string{"director", "genre", ""}
	values := []string{"Leo", "Ida", "Drama", ""}
	var linked, entities, aliased, rejected int
	for round := 0; round < 300; round++ {
		known := genNames(r, 1+r.Intn(20))
		novel := genNames(r, 1+r.Intn(6))
		facts := make([]extract.EntityFact, r.Intn(40))
		for i := range facts {
			facts[i] = extract.EntityFact{
				Name:   genMention(r, known, novel),
				Class:  classes[r.Intn(len(classes))],
				Attr:   attrs[r.Intn(len(attrs))],
				Value:  values[r.Intn(len(values))],
				Source: []string{"s0", "s1", "s2", "s3"}[r.Intn(4)],
				Doc:    "d",
			}
		}
		res := checkDiscover(t, r, facts, indexOf(known))
		linked += len(res.Linked)
		entities += len(res.Entities)
		rejected += res.Rejected
		for _, e := range res.Entities {
			aliased += len(e.Aliases)
		}
	}
	// Every rule had cases to hold.
	if linked == 0 || entities == 0 || aliased == 0 || rejected == 0 {
		t.Errorf("%d links, %d entities, %d aliases, %d rejected: a rule went untried", linked, entities, aliased, rejected)
	}
}

// FuzzDiscoverFollowsItsRules spells known names and facts from the fuzzer's
// bytes: NUL-separated fields, the first nKnown of them known names, each
// further one a fact's name with its class, attribute, value and source
// taken round-robin from small sets.
func FuzzDiscoverFollowsItsRules(f *testing.F) {
	f.Add([]byte("Jean-Luc Picard\x00University of Enel 24\x00Jean–Luc Picard\x00Enel 24\x00 Enel 24 \x00Zanzibar Nights\x00Zanzibar Night\x00Zanzibar Nights 2"), uint8(2))
	f.Add([]byte("Ab\x00Ab Cd\x00Ab\x00Cd\x00Ōsaka\x00Osaka\x00\x00Ab Cd Ef"), uint8(3))
	f.Add([]byte("\x00x\x00xy\x00y"), uint8(1))
	// Known {"", "y"}: the two "x" facts link to "y", not to the empty name.
	f.Add([]byte("\x00y\x00x\x00x"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nKnown uint8) {
		fields := strings.Split(string(data), "\x00")
		k := min(int(nKnown)%8, len(fields))
		facts := make([]extract.EntityFact, 0, len(fields)-k)
		for i, name := range fields[k:] {
			facts = append(facts, extract.EntityFact{
				Name:   name,
				Class:  []string{"Film", "Book", ""}[i%3],
				Attr:   []string{"director", "", "genre"}[i%3],
				Value:  []string{"Leo", "Ida", "", "Leo"}[i%4],
				Source: []string{"s0", "s1", "s2"}[i%3],
			})
		}
		checkDiscover(t, rand.New(rand.NewSource(int64(len(data)))), facts, indexOf(fields[:k]))
	})
}

// TestDiscoverHyphenAndEnDash: the two spellings of "Jean-Luc Picard" — a
// hyphen and an en dash, one rune apart and two bytes — are one name to
// discovery: the en dash links to the known hyphenated name, and unknown,
// the two merge as mentions of one entity.
func TestDiscoverHyphenAndEnDash(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	hyphen, dash := "Jean-Luc Picard", "Jean–Luc Picard"
	facts := []extract.EntityFact{
		fact(hyphen, "Person", "rank", "Captain", "s1"),
		fact(dash, "Person", "rank", "Captain", "s2"),
		fact(dash, "Person", "ship", "Enterprise", "s3"),
	}
	res := checkDiscover(t, r, facts, indexOf([]string{hyphen}))
	if res.Linked[dash] != hyphen || len(res.Entities) != 0 {
		t.Errorf("known %q: linked %v, entities %+v; want %q linked to it", hyphen, res.Linked, res.Entities, dash)
	}
	res = checkDiscover(t, r, facts, indexOf(nil))
	if len(res.Entities) != 1 || res.Entities[0].Name != dash || !slices.Equal(res.Entities[0].Aliases, []string{hyphen}) {
		t.Errorf("no known name: entities %+v, want %q with the alias %q", res.Entities, dash, hyphen)
	}
}
