// Package entitydisc implements new entity creation — the paper's §3.1
// commitment to "create new entities automatically by improving the
// existing techniques [Wick et al.], solving entity-linking and
// entity-discovery jointly". It consumes candidate entity facts from the
// DOM-tree and Web-text extractors' discovery modes and:
//
//  1. links: a candidate whose name is a known entity's, within
//     linkDistance (one) edits of one, or a word-boundary prefix or suffix
//     of one is resolved to that entity instead of becoming a new one;
//  2. merges: synonym mentions of the same unknown entity (names within
//     mergeDistance (two) edits, or one extending the other by a token)
//     are clustered, fixing the redundancy problem the paper attributes to
//     lexical-level Open IE;
//  3. creates: clusters of at least minSupport (two) facts become new
//     entities carrying their aggregated attribute values.
package entitydisc

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// The discovery thresholds.
const (
	// minSupport is the number of facts a cluster needs to become an
	// entity; one source is enough.
	minSupport = 2
	// linkDistance is the maximum edit distance for linking a mention to a
	// known entity.
	linkDistance = 1
	// mergeDistance is the maximum edit distance for merging two unknown
	// mentions.
	mergeDistance = 2
)

// Entity is one discovered entity with aggregated evidence.
type Entity struct {
	// Name is the canonical mention (the most frequent surface form).
	Name string
	// Class is the majority class of the contributing facts.
	Class string
	// Support counts contributing facts.
	Support int
	// Sources is the distinct contributing sources.
	Sources []string
	// Aliases are merged non-canonical surface forms.
	Aliases []string
	// Values aggregates each attribute's distinct values in sorted order,
	// one row per attribute, sorted by it.
	Values []kb.AttrValues
}

// Result is the discovery outcome.
type Result struct {
	// Entities are the created entities, sorted by descending support then
	// name.
	Entities []*Entity
	// Linked maps candidate names that resolved to known entities.
	Linked map[string]string
	// Rejected counts candidates dropped for insufficient support.
	Rejected int
}

// NumStatements is the number of statements AppendStatements appends: one
// per (entity, value, source).
func (r *Result) NumStatements() int {
	n := 0
	for _, e := range r.Entities {
		for _, row := range e.Values {
			n += len(row.Values) * len(e.Sources)
		}
	}
	return n
}

// AppendStatements appends the discovered entities' aggregated values to
// dst as statements of confidence conf, so they can join the fusion phase.
func (r *Result) AppendStatements(dst []rdf.Statement, conf float64) []rdf.Statement {
	dst = slices.Grow(dst, r.NumStatements())
	for _, e := range r.Entities {
		subject := extract.EntityIRI(e.Name)
		for _, row := range e.Values {
			predicate := extract.AttrIRI(row.Attr)
			for _, v := range row.Values {
				t := rdf.T(subject, predicate, rdf.Literal(v))
				for _, src := range e.Sources {
					dst = append(dst, rdf.S(t, rdf.Provenance{Source: src, Extractor: "entitydisc"}, conf))
				}
			}
		}
	}
	return dst
}

// Discover clusters candidate facts into linked, merged and new entities.
func Discover(facts []extract.EntityFact, idx *extract.EntityIndex) *Result {
	res := &Result{Linked: map[string]string{}}

	// Phase 1: entity linking — resolve near-duplicates of known names.
	// Facts repeat their mentions, so each distinct name is resolved once.
	l := newLinker(idx)
	unknown := map[string]bool{}
	var unknownFacts []extract.EntityFact
	for _, f := range facts {
		name := strings.TrimSpace(f.Name)
		if _, linked := res.Linked[name]; name == "" || linked {
			continue
		}
		if !unknown[name] {
			if target := l.link(name); target != "" {
				res.Linked[name] = target
				continue
			}
			unknown[name] = true
		}
		f.Name = name
		unknownFacts = append(unknownFacts, f)
	}

	// Phase 2: merge synonym mentions of unknown entities, numbered by their
	// place in sorted order. Union-find gives the transitive closure:
	// "Zanzibar Night", "Zanzibar Nights" and "Zanzibar Nights 2" all join
	// one cluster even though the outer pair is not itself a near-duplicate.
	count := map[string]int{}
	for _, f := range unknownFacts {
		count[f.Name]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	parent := make([]int, len(names))
	canon := make([]int, len(names)) // root -> the member its entity is named by
	for i := range parent {
		parent[i], canon[i] = i, -1
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if nearDuplicate(names[i], names[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	// The canonical name is the most frequent member, ties to the first.
	pos := make(map[string]int, len(names))
	for i, n := range names {
		pos[n] = i
		if r := find(i); canon[r] < 0 || count[n] > count[names[canon[r]]] {
			canon[r] = i
		}
	}

	// Phase 3: aggregate each cluster's facts and create its entity, in the
	// order of the entities' names.
	type agg struct {
		class            map[string]int
		sources, aliases []string
		values           [][2]string // (attribute, value) a fact
		support          int
	}
	aggs := make([]*agg, len(names)) // root -> its facts
	for _, f := range unknownFacts {
		r := find(pos[f.Name])
		a := aggs[r]
		if a == nil {
			a = &agg{class: map[string]int{}}
			aggs[r] = a
		}
		a.support++
		a.class[f.Class]++
		a.sources = append(a.sources, f.Source)
		if f.Name != names[canon[r]] {
			a.aliases = append(a.aliases, f.Name)
		}
		if f.Attr != "" && f.Value != "" {
			a.values = append(a.values, [2]string{f.Attr, f.Value})
		}
	}
	for i, name := range names {
		r := find(i)
		if canon[r] != i {
			continue
		}
		a := aggs[r]
		slices.Sort(a.sources)
		a.sources = slices.Compact(a.sources)
		if a.support < minSupport {
			res.Rejected++
			continue
		}
		e := &Entity{Name: name, Support: a.support, Sources: a.sources}
		top := 0
		for cls, n := range a.class {
			if n > top || (n == top && cls < e.Class) {
				e.Class, top = cls, n
			}
		}
		slices.Sort(a.aliases)
		e.Aliases = slices.Compact(a.aliases)
		e.Values = valueRows(a.values)
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

// valueRows turns (attribute, value) pairs into rows: each attribute's
// distinct values in sorted order, the attributes in sorted order. It sorts
// pairs in place.
func valueRows(pairs [][2]string) []kb.AttrValues {
	if len(pairs) == 0 {
		return nil
	}
	slices.SortFunc(pairs, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	pairs = slices.Compact(pairs)
	values := make([]string, len(pairs))
	var rows []kb.AttrValues
	for i := 0; i < len(pairs); {
		j := i
		for ; j < len(pairs) && pairs[j][0] == pairs[i][0]; j++ {
			values[j] = pairs[j][1]
		}
		rows = append(rows, kb.AttrValues{Attr: pairs[i][0], Values: values[i:j:j]})
		i = j
	}
	return rows
}

// linker resolves a mention to itself if it is a known name, and otherwise
// to the first known name, in sorted order, that is within linkDistance
// edits of it or carries it as a word-boundary prefix or suffix: a partial
// mention of four bytes or more, like "Enel 24" for "University of Enel 24",
// also links.
type linker struct {
	idx     *extract.EntityIndex
	known   []string       // the known names in sorted order, then "" for no match
	byRunes [][]int        // rune count -> positions in known with that count, ascending
	affix   map[string]int // word-boundary prefix or suffix of four bytes or more -> first position carrying it
}

func newLinker(idx *extract.EntityIndex) *linker {
	known := idx.Names()
	l := &linker{idx: idx, known: append(known, ""), affix: map[string]int{}}
	for i, k := range known {
		n := utf8.RuneCountInString(k)
		for len(l.byRunes) <= n {
			l.byRunes = append(l.byRunes, nil)
		}
		l.byRunes[n] = append(l.byRunes[n], i)
		for p := 0; p < len(k); p++ {
			if k[p] == ' ' {
				for _, a := range [2]string{k[:p], k[p+1:]} {
					if _, ok := l.affix[a]; !ok && len(a) >= 4 {
						l.affix[a] = i
					}
				}
			}
		}
	}
	return l
}

// link returns the known name the mention resolves to, or "". Only names
// whose rune count is within linkDistance of the mention's are measured, and
// only those before the best position found so far.
func (l *linker) link(name string) string {
	if _, ok := l.idx.Class(name); ok {
		return name
	}
	best, ok := l.affix[name]
	if !ok {
		best = len(l.known) - 1
	}
	n := utf8.RuneCountInString(name)
	for c := max(n-linkDistance, 0); c < len(l.byRunes) && c-n <= linkDistance; c++ {
		for _, i := range l.byRunes[c] {
			if i < best && extract.WithinDistance(name, l.known[i], linkDistance) {
				best = i
			}
		}
	}
	return l.known[best]
}

// nearDuplicate reports whether two unknown mentions are surface variants:
// within mergeDistance edits, or one extends the other by a single token.
func nearDuplicate(a, b string) bool {
	return extract.WithinDistance(a, b, mergeDistance) || extendsByOneToken(a, b) || extendsByOneToken(b, a)
}

// extendsByOneToken is strings.HasPrefix(long, short+" ") with long one
// field longer than short, without building either.
func extendsByOneToken(long, short string) bool {
	if len(long) <= len(short) || long[len(short)] != ' ' || long[:len(short)] != short {
		return false
	}
	rest := strings.TrimSpace(long[len(short)+1:])
	return rest != "" && strings.IndexFunc(rest, unicode.IsSpace) < 0
}
