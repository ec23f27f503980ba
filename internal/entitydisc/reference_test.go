package entitydisc

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// refDiscover is the form Discover replaced, kept as its reference: every
// fact is linked on its own, against every known name in turn, through
// concatenated affixes and a distance check that converts both names to
// runes.
func refDiscover(facts []extract.EntityFact, idx *extract.EntityIndex) *Result {
	res := &Result{Linked: map[string]string{}}
	known := idx.Names()
	var unknownFacts []extract.EntityFact
	for _, f := range facts {
		name := strings.TrimSpace(f.Name)
		if name == "" {
			continue
		}
		if _, ok := idx.Class(name); ok {
			res.Linked[name] = name
			continue
		}
		if target := refLinkToKnown(name, known, linkDistance); target != "" {
			res.Linked[name] = target
			continue
		}
		f.Name = name
		unknownFacts = append(unknownFacts, f)
	}

	nameCount := map[string]int{}
	for _, f := range unknownFacts {
		nameCount[f.Name]++
	}
	names := make([]string, 0, len(nameCount))
	for n := range nameCount {
		names = append(names, n)
	}
	sort.Strings(names)
	parent := map[string]string{}
	var find func(string) string
	find = func(n string) string {
		p, ok := parent[n]
		if !ok || p == n {
			parent[n] = n
			return n
		}
		r := find(p)
		parent[n] = r
		return r
	}
	for i, a := range names {
		for j := i + 1; j < len(names); j++ {
			b := names[j]
			if refNearDuplicate(a, b, mergeDistance) {
				ra, rb := find(a), find(b)
				if ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	canon := map[string]string{}
	for _, n := range names {
		canon[n] = find(n)
	}
	clusterMembers := map[string][]string{}
	for n, c := range canon {
		clusterMembers[c] = append(clusterMembers[c], n)
	}
	best := map[string]string{}
	for c, members := range clusterMembers {
		sort.Strings(members)
		top := members[0]
		for _, m := range members[1:] {
			if nameCount[m] > nameCount[top] {
				top = m
			}
		}
		best[c] = top
	}

	type agg struct {
		class   map[string]int
		sources map[string]struct{}
		values  map[string]map[string]struct{}
		aliases map[string]struct{}
		support int
	}
	byEntity := map[string]*agg{}
	for _, f := range unknownFacts {
		key := best[canon[f.Name]]
		a := byEntity[key]
		if a == nil {
			a = &agg{
				class:   map[string]int{},
				sources: map[string]struct{}{},
				values:  map[string]map[string]struct{}{},
				aliases: map[string]struct{}{},
			}
			byEntity[key] = a
		}
		a.support++
		a.class[f.Class]++
		a.sources[f.Source] = struct{}{}
		if f.Name != key {
			a.aliases[f.Name] = struct{}{}
		}
		if f.Attr != "" && f.Value != "" {
			vs := a.values[f.Attr]
			if vs == nil {
				vs = map[string]struct{}{}
				a.values[f.Attr] = vs
			}
			vs[f.Value] = struct{}{}
		}
	}
	keys := make([]string, 0, len(byEntity))
	for k := range byEntity {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, name := range keys {
		a := byEntity[name]
		if a.support < minSupport {
			res.Rejected++
			continue
		}
		e := &Entity{Name: name, Support: a.support}
		for cls, n := range a.class {
			if e.Class == "" || n > a.class[e.Class] || (n == a.class[e.Class] && cls < e.Class) {
				e.Class = cls
			}
		}
		for s := range a.sources {
			e.Sources = append(e.Sources, s)
		}
		sort.Strings(e.Sources)
		for al := range a.aliases {
			e.Aliases = append(e.Aliases, al)
		}
		sort.Strings(e.Aliases)
		attrs := make([]string, 0, len(a.values))
		for attr := range a.values {
			attrs = append(attrs, attr)
		}
		sort.Strings(attrs)
		for _, attr := range attrs {
			row := kb.AttrValues{Attr: attr}
			for v := range a.values[attr] {
				row.Values = append(row.Values, v)
			}
			sort.Strings(row.Values)
			e.Values = append(e.Values, row)
		}
		res.Entities = append(res.Entities, e)
	}
	sort.Slice(res.Entities, func(i, j int) bool {
		if res.Entities[i].Support != res.Entities[j].Support {
			return res.Entities[i].Support > res.Entities[j].Support
		}
		return res.Entities[i].Name < res.Entities[j].Name
	})
	return res
}

func refLinkToKnown(name string, known []string, maxDist int) string {
	for _, k := range known {
		if refWithinDistance(name, k, maxDist) {
			return k
		}
		if len(name) >= 4 && (strings.HasSuffix(k, " "+name) || strings.HasPrefix(k, name+" ")) {
			return k
		}
	}
	return ""
}

func refNearDuplicate(a, b string, maxDist int) bool {
	if refWithinDistance(a, b, maxDist) {
		return true
	}
	fa, fb := strings.Fields(a), strings.Fields(b)
	if len(fa) == len(fb)+1 && strings.HasPrefix(a, b+" ") {
		return true
	}
	if len(fb) == len(fa)+1 && strings.HasPrefix(b, a+" ") {
		return true
	}
	return false
}

func refWithinDistance(a, b string, max int) bool {
	ra, rb := []rune(a), []rune(b)
	if len(ra)-len(rb) > max || len(rb)-len(ra) > max {
		return false
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > max {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)] <= max
}

// refStatements is the form Result.AppendStatements replaced: one NewStatement,
// and so one entity and one attribute IRI, a statement.
func refStatements(r *Result, conf float64) []rdf.Statement {
	var out []rdf.Statement
	for _, e := range r.Entities {
		for _, row := range e.Values {
			for _, v := range row.Values {
				for _, src := range e.Sources {
					out = append(out, extract.NewStatement(e.Name, row.Attr, v, src, "entitydisc", "", conf))
				}
			}
		}
	}
	return out
}

// indexOf is an entity index over the given known names.
func indexOf(names []string) *extract.EntityIndex {
	return extract.NewEntityIndex(&kb.SourceKB{CoveredEntities: map[string][]string{"Film": names}})
}

// checkDiscover fails t unless Discover and its statements are the
// reference's, deeply equal.
func checkDiscover(t *testing.T, facts []extract.EntityFact, idx *extract.EntityIndex) {
	t.Helper()
	got, want := Discover(facts, idx), refDiscover(facts, idx)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d facts over %q:\n got  %+v\n want %+v", len(facts), idx.Names(), got, want)
	}
	if g, w := got.AppendStatements(nil, 0.6), refStatements(want, 0.6); !reflect.DeepEqual(g, w) {
		t.Fatalf("Statements\n got  %v\n want %v", g, w)
	}
}

// genMention spells a mention of one of the known names or of a new one: the
// name itself, a one-rune typo (a multi-byte substitution among them), a
// word-boundary prefix or suffix (above and below 4 bytes), a one-token
// extension, the name padded with whitespace, or an empty one.
func genMention(r *rand.Rand, known, novel []string) string {
	words := []string{"Nights", "Enel", "24", "Jean-Luc", "Zürich", "of", "Ab", "Ōsaka"}
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
// extend one another and differ by a rune.
func genNames(r *rand.Rand, n int) []string {
	words := []string{"Zanzibar", "Nights", "Night", "Enel", "24", "University", "of", "Jean-Luc", "Jean–Luc", "Zürich", "Ab", "Ōsaka", "Film", "Film 1"}
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
// the forms they replaced on generated mentions of known and new names,
// repeated across sources.
func TestDiscoverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// No empty class: the reference picks among classes in map order
	// when one is empty (TestDiscoverClassIsAFunctionOfTheFacts).
	classes := []string{"Film", "Book", "Person"}
	attrs := []string{"director", "genre", ""}
	values := []string{"Leo", "Ida", "Drama", ""}
	for round := 0; round < 300; round++ {
		known := genNames(r, 1+r.Intn(20))
		novel := genNames(r, 1+r.Intn(6))
		idx := indexOf(known)
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
		checkDiscover(t, facts, idx)
	}
}

// FuzzDiscoverMatchesReference spells known names and facts from the
// fuzzer's bytes: NUL-separated fields, the first nKnown of them known
// names, each further one a fact's name with its class, attribute, value
// and source taken round-robin from small sets.
func FuzzDiscoverMatchesReference(f *testing.F) {
	f.Add([]byte("Jean-Luc Picard\x00University of Enel 24\x00Jean–Luc Picard\x00Enel 24\x00 Enel 24 \x00Zanzibar Nights\x00Zanzibar Night\x00Zanzibar Nights 2"), uint8(2))
	f.Add([]byte("Ab\x00Ab Cd\x00Ab\x00Cd\x00Ōsaka\x00Osaka\x00\x00Ab Cd Ef"), uint8(3))
	f.Add([]byte("\x00x\x00xy\x00y"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nKnown uint8) {
		fields := strings.Split(string(data), "\x00")
		k := min(int(nKnown)%8, len(fields))
		facts := make([]extract.EntityFact, 0, len(fields)-k)
		for i, name := range fields[k:] {
			facts = append(facts, extract.EntityFact{
				Name:   name,
				Class:  []string{"Film", "Book"}[i%2],
				Attr:   []string{"director", "", "genre"}[i%3],
				Value:  []string{"Leo", "Ida", "", "Leo"}[i%4],
				Source: []string{"s0", "s1", "s2"}[i%3],
			})
		}
		checkDiscover(t, facts, indexOf(fields[:k]))
	})
}
