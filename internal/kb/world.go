package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"akb/internal/hierarchy"
)

// ClassSpec parameterises one of the paper's five representative classes:
// the size of its canonical attribute universe and how that universe is
// carved into the raw property sets of DBpedia and Freebase. The numbers
// come straight from Table 2 of the paper.
type ClassSpec struct {
	Name string
	// DBpediaRaw is the number of raw DBpedia properties for the class.
	DBpediaRaw int
	// DBpediaExpanded is the number of canonical attributes those raw
	// properties cover once composites are flattened ("Extrac.(DBpedia)").
	DBpediaExpanded int
	// FreebaseRaw is the number of raw Freebase properties.
	FreebaseRaw int
	// FreebaseExpanded is the number of canonical attributes they cover.
	FreebaseExpanded int
	// Combined is the size of the union of the two expanded sets
	// ("Combine(Freebase&DBpedia)") and the class's attribute-universe size.
	Combined int
}

// Overlap returns the number of canonical attributes covered by both KBs.
func (s ClassSpec) Overlap() int { return s.DBpediaExpanded + s.FreebaseExpanded - s.Combined }

// FiveClasses are the representative classes of the paper's Table 2 with
// the paper's exact attribute statistics.
func FiveClasses() []ClassSpec {
	return []ClassSpec{
		{Name: "Book", DBpediaRaw: 21, DBpediaExpanded: 48, FreebaseRaw: 5, FreebaseExpanded: 19, Combined: 60},
		{Name: "Film", DBpediaRaw: 53, DBpediaExpanded: 53, FreebaseRaw: 54, FreebaseExpanded: 54, Combined: 92},
		{Name: "Country", DBpediaRaw: 191, DBpediaExpanded: 360, FreebaseRaw: 22, FreebaseExpanded: 150, Combined: 489},
		{Name: "University", DBpediaRaw: 21, DBpediaExpanded: 484, FreebaseRaw: 9, FreebaseExpanded: 57, Combined: 518},
		{Name: "Hotel", DBpediaRaw: 18, DBpediaExpanded: 216, FreebaseRaw: 7, FreebaseExpanded: 56, Combined: 255},
	}
}

// WorldConfig controls synthetic-world generation.
type WorldConfig struct {
	// Seed drives all randomness; equal seeds produce identical worlds.
	Seed int64
	// EntitiesPerClass is the number of ground-truth entities per class.
	EntitiesPerClass int
	// AttrsPerEntity caps how many attributes of the universe each entity
	// has values for (the curated core is always included).
	AttrsPerEntity int
	// ExtraAttrsPerClass extends each class's attribute universe beyond the
	// ClassSpec's KB-covered span: attributes that exist in the world (and
	// appear on websites, in texts and in queries) but that no existing KB
	// records. They are what the open-Web extractors can genuinely
	// discover. Negative disables; zero uses the default of 15.
	ExtraAttrsPerClass int
	// Classes defaults to FiveClasses().
	Classes []ClassSpec
}

// DefaultWorldConfig returns a moderate-size world suitable for tests and
// examples.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{Seed: 1, EntitiesPerClass: 60, AttrsPerEntity: 24}
}

// World is the synthetic ground truth: an ontology, entities with true
// attribute values, and the value hierarchy. Extractors never see the world
// directly — they see KBs, query streams, websites and text corpora derived
// from it — while the evaluation harness scores extractions against it.
type World struct {
	Config   WorldConfig
	Ontology *Ontology
	// Hier is the value hierarchy for place-valued attributes.
	Hier *hierarchy.Forest

	entities map[string][]*Entity // class -> entities
	names    map[string][]string  // class -> entity names, aligned with entities
	byName   map[string]*Entity
	places   []placeChain
	specs    map[string]ClassSpec
}

type placeChain struct{ city, region, country string }

// NewWorld generates a world from the configuration.
func NewWorld(cfg WorldConfig) *World {
	if cfg.Classes == nil {
		cfg.Classes = FiveClasses()
	}
	if cfg.EntitiesPerClass <= 0 {
		cfg.EntitiesPerClass = 60
	}
	if cfg.AttrsPerEntity <= 0 {
		cfg.AttrsPerEntity = 24
	}
	if cfg.ExtraAttrsPerClass == 0 {
		cfg.ExtraAttrsPerClass = 15
	} else if cfg.ExtraAttrsPerClass < 0 {
		cfg.ExtraAttrsPerClass = 0
	}
	w := &World{
		Config:   cfg,
		Ontology: NewOntology(),
		Hier:     hierarchy.NewForest(),
		entities: make(map[string][]*Entity),
		names:    make(map[string][]string),
		byName:   make(map[string]*Entity),
		specs:    make(map[string]ClassSpec),
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	w.buildPlaces(r)
	for _, spec := range cfg.Classes {
		w.specs[spec.Name] = spec
		cls := &Class{Name: spec.Name, Attributes: AttributeUniverse(spec.Name, spec.Combined+cfg.ExtraAttrsPerClass)}
		w.Ontology.AddClass(cls)
		w.populateClass(cls, r)
	}
	return w
}

// buildPlaces creates a three-level location hierarchy:
// city ⊂ region ⊂ country.
func (w *World) buildPlaces(r *rand.Rand) {
	seen := map[string]bool{}
	fresh := func(sylls int, suffix string) string {
		for {
			name := RandomProperNoun(r, sylls) + suffix
			if !seen[name] {
				seen[name] = true
				return name
			}
		}
	}
	for c := 0; c < 10; c++ {
		country := fresh(2, " Land")
		for g := 0; g < 3; g++ {
			region := fresh(2, " Province")
			if err := w.Hier.AddEdge(region, country); err != nil {
				panic(err)
			}
			for t := 0; t < 4; t++ {
				city := fresh(3, "")
				if err := w.Hier.AddEdge(city, region); err != nil {
					panic(err)
				}
				w.places = append(w.places, placeChain{city: city, region: region, country: country})
			}
		}
	}
}

// arena hands out consecutive sub-slices of chunks it allocates, so that
// the many short slices of one class cost a few allocations. Each slice is
// capped at its length: appending to one never reaches its neighbour.
type arena[T any] struct {
	buf   []T
	chunk int
}

func (a *arena[T]) take(n int) []T {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]T, 0, max(n, a.chunk))
	}
	i := len(a.buf)
	a.buf = a.buf[:i+n]
	return a.buf[i : i+n : i+n]
}

// populateClass generates the class's entities. The entities, their rows,
// values and spans are cut from per-class arenas. An entity's values are
// drawn in attribute-index order, then its rows are sorted by name.
func (w *World) populateClass(cls *Class, r *rand.Rand) {
	curatedN := len(curatedAttributes[cls.Name])
	// Every entity carries the curated core and is sampled up to the cap, so
	// all have the same number of attributes.
	perEntity := max(min(curatedN, len(cls.Attributes)), min(w.Config.AttrsPerEntity, len(cls.Attributes)))
	entities := make([]Entity, w.Config.EntitiesPerClass)
	rows := make([]AttrValues, len(entities)*perEntity)
	values := arena[string]{chunk: len(rows)/4 + 16}
	timelines := arena[AttrSpans]{chunk: len(entities)}
	spans := arena[Span]{chunk: 2 * len(entities)}
	attrs := make([]int, 0, perEntity)
	var drawn []string // one attribute's values before they are deduplicated
	for i := range entities {
		e := &entities[i]
		e.Name, e.Class = EntityName(cls.Name, r, i), cls.Name
		// Every entity carries the curated core; the long tail is sampled.
		attrs = attrs[:0]
		for j := 0; j < curatedN && j < len(cls.Attributes); j++ {
			attrs = append(attrs, j)
		}
		for len(attrs) < w.Config.AttrsPerEntity && len(attrs) < len(cls.Attributes) {
			j := r.Intn(len(cls.Attributes))
			if !slices.Contains(attrs, j) {
				attrs = append(attrs, j)
			}
		}
		sort.Ints(attrs)
		nTemporal := 0
		for _, j := range attrs {
			if cls.Attributes[j].Temporal {
				nTemporal++
			}
		}
		e.Values = rows[i*perEntity : (i+1)*perEntity : (i+1)*perEntity]
		e.Timelines = timelines.take(nTemporal)
		nTemporal = 0
		for k, j := range attrs {
			a := cls.Attributes[j]
			if a.Temporal {
				tl := w.randomTimeline(a, r, &spans)
				e.Timelines[nTemporal] = AttrSpans{Attr: a.Canonical, Spans: tl}
				nTemporal++
				vals := values.take(1)
				vals[0] = tl[len(tl)-1].Value
				e.Values[k] = AttrValues{Attr: a.Canonical, Values: vals}
				continue
			}
			n := 1
			if !a.Functional {
				n = 1 + r.Intn(3)
			}
			drawn = drawn[:0]
			for d := 0; d < n; d++ {
				if v := w.randomValue(a, r); !slices.Contains(drawn, v) {
					drawn = append(drawn, v)
				}
			}
			vals := values.take(len(drawn))
			copy(vals, drawn)
			e.Values[k] = AttrValues{Attr: a.Canonical, Values: vals}
		}
		slices.SortFunc(e.Values, func(a, b AttrValues) int { return strings.Compare(a.Attr, b.Attr) })
		slices.SortFunc(e.Timelines, func(a, b AttrSpans) int { return strings.Compare(a.Attr, b.Attr) })
		w.entities[cls.Name] = append(w.entities[cls.Name], e)
		w.names[cls.Name] = append(w.names[cls.Name], e.Name)
		w.byName[e.Name] = e
	}
}

// randomTimeline builds 2-4 consecutive spans covering recent decades for
// a temporal attribute (e.g. successive heads of state), cut from spans.
func (w *World) randomTimeline(a Attribute, r *rand.Rand, spans *arena[Span]) []Span {
	n := 2 + r.Intn(3)
	start := 1970 + r.Intn(20)
	out := spans.take(n)[:0]
	year := start
	for i := 0; i < n; i++ {
		length := 3 + r.Intn(10)
		to := year + length
		if i == n-1 {
			to = 2015 // "present" for the paper's era
		}
		v := w.randomValue(Attribute{Kind: a.Kind}, r)
		out = append(out, Span{Value: v, From: year, To: to})
		year = to + 1
		if year >= 2014 {
			out[len(out)-1].To = 2015
			break
		}
	}
	return slices.Clip(out)
}

func (w *World) randomValue(a Attribute, r *rand.Rand) string {
	switch a.Kind {
	case KindName:
		return RandomPersonName(r)
	case KindPlace:
		pc := w.places[r.Intn(len(w.places))]
		// Hierarchical attributes store the most specific truth (the city);
		// generalisations are implied via the hierarchy.
		if a.Hierarchical {
			return pc.city
		}
		return pc.country
	case KindNumber:
		return fmt.Sprintf("%d", 1+r.Intn(999999))
	case KindDate:
		return fmt.Sprintf("%d", 1850+r.Intn(170))
	default:
		return RandomProperNoun(r, 2) + " " + RandomProperNoun(r, 2)
	}
}

// EntitiesOf returns the ground-truth entities of a class.
func (w *World) EntitiesOf(class string) []*Entity { return w.entities[class] }

// Entity looks an entity up by name.
func (w *World) Entity(name string) (*Entity, bool) {
	e, ok := w.byName[name]
	return e, ok
}

// EntityNames returns the names of a class's entities in generation order.
// The slice is the world's own, built once at generation: callers must not
// modify it.
func (w *World) EntityNames(class string) []string { return w.names[class] }

// Spec returns the ClassSpec for a class.
func (w *World) Spec(class string) (ClassSpec, bool) {
	s, ok := w.specs[class]
	return s, ok
}

// IsTrue reports whether value is a true value for (entity, attr), counting
// hierarchy generalisations of a true value as true — the paper's
// (Susie Fang, birth place, China) example.
func (w *World) IsTrue(e *Entity, attr, value string) bool {
	for _, v := range e.TrueValues(attr) {
		if v == value {
			return true
		}
		if w.Hier.IsAncestor(value, v) {
			return true
		}
	}
	return false
}

// TrueLeafValues returns the most specific true values for (entity, attr).
func (w *World) TrueLeafValues(e *Entity, attr string) []string {
	return e.TrueValues(attr)
}
