package kb

import (
	"fmt"
	"math/rand"
	"strings"
)

// curatedAttributes is a hand-written core of realistic attribute names per
// class. The generated attribute universe starts with these and is padded
// with modifier+noun combinations to reach the class's target size.
var curatedAttributes = map[string][]Attribute{
	"Book": {
		{Canonical: "author", Kind: KindName, Functional: false},
		{Canonical: "publisher", Kind: KindName, Functional: true},
		{Canonical: "publication date", Kind: KindDate, Functional: true},
		{Canonical: "isbn", Kind: KindText, Functional: true},
		{Canonical: "genre", Kind: KindText, Functional: false},
		{Canonical: "page count", Kind: KindNumber, Functional: true},
		{Canonical: "language", Kind: KindText, Functional: false},
		{Canonical: "country of origin", Kind: KindPlace, Functional: true, Hierarchical: true},
		{Canonical: "series", Kind: KindText, Functional: true},
		{Canonical: "translator", Kind: KindName, Functional: false},
		{Canonical: "illustrator", Kind: KindName, Functional: false},
		{Canonical: "editor", Kind: KindName, Functional: false},
	},
	"Film": {
		{Canonical: "director", Kind: KindName, Functional: true},
		{Canonical: "producer", Kind: KindName, Functional: false},
		{Canonical: "release date", Kind: KindDate, Functional: true},
		{Canonical: "running time", Kind: KindNumber, Functional: true},
		{Canonical: "genre", Kind: KindText, Functional: false},
		{Canonical: "cast member", Kind: KindName, Functional: false},
		{Canonical: "screenwriter", Kind: KindName, Functional: false},
		{Canonical: "composer", Kind: KindName, Functional: true},
		{Canonical: "budget", Kind: KindNumber, Functional: true},
		{Canonical: "box office", Kind: KindNumber, Functional: true},
		{Canonical: "filming location", Kind: KindPlace, Functional: false, Hierarchical: true},
		{Canonical: "country of origin", Kind: KindPlace, Functional: true, Hierarchical: true},
	},
	"Country": {
		{Canonical: "capital", Kind: KindPlace, Functional: true, Hierarchical: true},
		{Canonical: "population", Kind: KindNumber, Functional: true},
		{Canonical: "area", Kind: KindNumber, Functional: true},
		{Canonical: "currency", Kind: KindText, Functional: true},
		{Canonical: "official language", Kind: KindText, Functional: false},
		{Canonical: "head of state", Kind: KindName, Functional: true, Temporal: true},
		{Canonical: "national anthem", Kind: KindText, Functional: true},
		{Canonical: "calling code", Kind: KindText, Functional: true},
		{Canonical: "gdp", Kind: KindNumber, Functional: true},
		{Canonical: "time zone", Kind: KindText, Functional: false},
		{Canonical: "founding date", Kind: KindDate, Functional: true},
	},
	"University": {
		{Canonical: "chancellor", Kind: KindName, Functional: true, Temporal: true},
		{Canonical: "founding date", Kind: KindDate, Functional: true},
		{Canonical: "student count", Kind: KindNumber, Functional: true},
		{Canonical: "campus location", Kind: KindPlace, Functional: false, Hierarchical: true},
		{Canonical: "motto", Kind: KindText, Functional: true},
		{Canonical: "endowment", Kind: KindNumber, Functional: true},
		{Canonical: "faculty count", Kind: KindNumber, Functional: true},
		{Canonical: "mascot", Kind: KindText, Functional: true},
		{Canonical: "acceptance rate", Kind: KindNumber, Functional: true},
	},
	"Hotel": {
		{Canonical: "star rating", Kind: KindNumber, Functional: true},
		{Canonical: "room count", Kind: KindNumber, Functional: true},
		{Canonical: "location", Kind: KindPlace, Functional: true, Hierarchical: true},
		{Canonical: "check in time", Kind: KindText, Functional: true},
		{Canonical: "check out time", Kind: KindText, Functional: true},
		{Canonical: "opening date", Kind: KindDate, Functional: true},
		{Canonical: "owner", Kind: KindName, Functional: true, Temporal: true},
	},
}

var attrModifiers = []string{
	"total", "annual", "official", "former", "original", "current", "primary",
	"secondary", "average", "estimated", "gross", "net", "minimum", "maximum",
	"local", "international", "national", "regional", "historic", "projected",
	"male", "female", "urban", "rural", "adjusted", "recorded", "combined",
	"initial", "final", "peak",
}

var attrNouns = map[string][]string{
	"Book": {
		"edition", "format", "award", "review score", "print run", "binding",
		"dedication", "subject", "audience", "chapter count", "volume",
		"sales figure", "adaptation", "preface author", "cover artist",
		"reading level", "catalog number", "revision", "excerpt", "royalty rate",
	},
	"Film": {
		"rating", "award", "revenue", "screening", "distributor", "studio",
		"sequel", "soundtrack", "aspect ratio", "sound format", "premiere",
		"certification", "attendance", "trailer", "poster artist", "gaffer",
		"stunt coordinator", "casting director", "color process", "negative cost",
	},
	"Country": {
		"population", "area", "gdp", "export", "import", "tax rate",
		"literacy rate", "birth rate", "death rate", "growth rate",
		"unemployment rate", "inflation rate", "debt", "budget", "reserve",
		"coastline", "border length", "forest cover", "water area",
		"military spending", "life expectancy", "median age", "density",
		"electricity production", "energy consumption", "road network",
		"railway length", "airport count", "port count", "holiday",
		"emission level", "rainfall", "temperature", "elevation", "income",
	},
	"University": {
		"enrollment", "tuition", "ranking", "faculty ratio", "graduation rate",
		"retention rate", "research budget", "library volume count",
		"campus area", "dormitory capacity", "alumni count", "professor count",
		"department count", "program count", "scholarship fund", "sports title",
		"publication count", "patent count", "laboratory count", "grant income",
		"admission score", "applicant count", "degree count", "staff count",
		"course count", "exchange partner", "accreditation", "housing cost",
		"student fee", "club count", "lecture hall count", "budget",
	},
	"Hotel": {
		"rate", "suite count", "floor count", "restaurant count", "pool count",
		"conference capacity", "parking capacity", "staff count", "guest score",
		"amenity", "occupancy rate", "renovation date", "bar count",
		"spa service", "gym area", "banquet capacity", "loyalty program",
		"pet policy", "wifi speed", "breakfast price", "tax", "deposit",
		"cancellation fee", "airport distance", "beach distance",
	},
}

// AttributeUniverse deterministically generates n distinct canonical
// attributes for the class: the curated core first, then modifier+noun
// combinations. It panics if the class has no vocabulary.
func AttributeUniverse(class string, n int) []Attribute {
	curated, ok := curatedAttributes[class]
	if !ok {
		panic(fmt.Sprintf("kb: unknown class %q", class))
	}
	nouns := attrNouns[class]
	out := make([]Attribute, 0, n)
	seen := make(map[string]bool, n)
	for _, a := range curated {
		if len(out) == n {
			break
		}
		if !seen[a.Canonical] {
			seen[a.Canonical] = true
			out = append(out, a)
		}
	}
	// Plain nouns next, then modifier+noun, then double-modifier+noun: the
	// combination space is far larger than any class's target size.
	emit := func(name string, kind ValueKind) {
		if len(out) < n && !seen[name] {
			seen[name] = true
			out = append(out, Attribute{Canonical: name, Kind: kind, Functional: true})
		}
	}
	for _, noun := range nouns {
		emit(noun, nounKind(noun))
	}
	for _, mod := range attrModifiers {
		for _, noun := range nouns {
			if len(out) == n {
				return out
			}
			emit(mod+" "+noun, nounKind(noun))
		}
	}
	for _, mod1 := range attrModifiers {
		for _, mod2 := range attrModifiers {
			if mod1 == mod2 {
				continue
			}
			for _, noun := range nouns {
				if len(out) == n {
					return out
				}
				emit(mod1+" "+mod2+" "+noun, nounKind(noun))
			}
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("kb: vocabulary for %q exhausted at %d of %d attributes", class, len(out), n))
	}
	return out
}

// nounKind guesses a value kind from the noun's surface form.
func nounKind(noun string) ValueKind {
	switch {
	case strings.HasSuffix(noun, "count") || strings.HasSuffix(noun, "rate") ||
		strings.HasSuffix(noun, "capacity") || strings.HasSuffix(noun, "area") ||
		strings.HasSuffix(noun, "length") || strings.HasSuffix(noun, "score") ||
		strings.HasSuffix(noun, "ratio") || strings.HasSuffix(noun, "price") ||
		strings.HasSuffix(noun, "fee") || strings.HasSuffix(noun, "cost") ||
		strings.HasSuffix(noun, "distance") || strings.HasSuffix(noun, "speed"):
		return KindNumber
	case strings.HasSuffix(noun, "date"):
		return KindDate
	case strings.HasSuffix(noun, "author") || strings.HasSuffix(noun, "artist") ||
		strings.HasSuffix(noun, "director") || strings.HasSuffix(noun, "coordinator"):
		return KindName
	default:
		return KindText
	}
}

var nameSyllables = []string{
	"al", "an", "ar", "bel", "ber", "bo", "ca", "cas", "da", "del", "den",
	"do", "el", "en", "fa", "fer", "ga", "gran", "ha", "hel", "il", "ka",
	"kor", "la", "lan", "len", "lo", "ma", "mar", "mel", "mi", "mon", "na",
	"nor", "ol", "or", "pa", "per", "ra", "ren", "ro", "sa", "sel", "ta",
	"tor", "va", "ver", "vi", "wes", "zan",
}

var firstNames = []string{
	"Alice", "Benjamin", "Clara", "Daniel", "Elena", "Frederick", "Grace",
	"Henry", "Isabel", "James", "Katherine", "Leon", "Maria", "Nathan",
	"Olivia", "Peter", "Quentin", "Rosa", "Samuel", "Teresa", "Ulrich",
	"Victoria", "Walter", "Ximena", "Yusuf", "Zelda",
}

var lastNames = []string{
	"Anderson", "Baranov", "Castellan", "Dimitrov", "Eriksson", "Fontaine",
	"Galloway", "Hartmann", "Ibanez", "Jansen", "Kovacs", "Lindqvist",
	"Moreau", "Novak", "Okafor", "Petrova", "Quintero", "Rossi", "Sandoval",
	"Takahashi", "Ueda", "Vasquez", "Whitfield", "Xu", "Yamamoto", "Zhukov",
}

// RandomPersonName draws a deterministic person name from the rng.
func RandomPersonName(r *rand.Rand) string {
	return firstNames[r.Intn(len(firstNames))] + " " + lastNames[r.Intn(len(lastNames))]
}

// RandomProperNoun draws a capitalised multi-syllable proper noun, used for
// entity names, place names and titles.
func RandomProperNoun(r *rand.Rand, syllables int) string {
	var buf [32]byte
	return string(AppendProperNoun(buf[:0], r, syllables))
}

// AppendProperNoun appends the proper noun RandomProperNoun would draw.
func AppendProperNoun(b []byte, r *rand.Rand, syllables int) []byte {
	start := len(b)
	b = AppendSyllables(b, r, syllables)
	if len(b) > start {
		b[start] -= 'a' - 'A' // the syllables are lower-case ASCII
	}
	return b
}

// AppendSyllables appends a proper noun's syllables as they are drawn, in
// lower case.
func AppendSyllables(b []byte, r *rand.Rand, syllables int) []byte {
	for i := 0; i < syllables; i++ {
		b = append(b, nameSyllables[r.Intn(len(nameSyllables))]...)
	}
	return b
}

// EntityName generates a deterministic entity name for a class and index,
// unique within the class.
func EntityName(class string, r *rand.Rand, idx int) string {
	switch class {
	case "Book", "Film":
		words := 1 + r.Intn(3)
		parts := make([]string, words)
		for i := range parts {
			parts[i] = RandomProperNoun(r, 2+r.Intn(2))
		}
		return strings.Join(parts, " ") + fmt.Sprintf(" %c%d", 'A'+idx%26, idx)
	case "Country":
		return RandomProperNoun(r, 2+r.Intn(2)) + fmt.Sprintf("ia %d", idx)
	case "University":
		return "University of " + RandomProperNoun(r, 2+r.Intn(2)) + fmt.Sprintf(" %d", idx)
	case "Hotel":
		return "Hotel " + RandomProperNoun(r, 2+r.Intn(2)) + fmt.Sprintf(" %d", idx)
	default:
		return RandomProperNoun(r, 3) + fmt.Sprintf(" %d", idx)
	}
}
