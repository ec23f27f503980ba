package textx

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"akb/internal/extract"
)

// refFindEntity and containsWord are the per-name scan phraseSet replaced,
// kept as the reference the one-pass matcher is checked against: one
// substring search per name per sentence, longest name wins, the first in
// names order among equals (names are sorted, so the smallest).
func refFindEntity(sent string, names []string) string {
	best := ""
	for _, n := range names {
		if len(n) > len(best) && containsWord(sent, n) {
			best = n
		}
	}
	return best
}

// containsWord reports whether needle occurs in haystack at word
// boundaries.
func containsWord(haystack, needle string) bool {
	for start := 0; ; {
		i := strings.Index(haystack[start:], needle)
		if i < 0 {
			return false
		}
		i += start
		leftOK := i == 0 || haystack[i-1] == ' '
		j := i + len(needle)
		rightOK := j == len(haystack) || haystack[j] == ' ' || haystack[j] == '.' ||
			haystack[j] == ',' || haystack[j] == '\''
		if leftOK && rightOK {
			return true
		}
		start = i + 1
	}
}

func TestPhraseSetMatchesReference(t *testing.T) {
	// Names that are prefixes and suffixes of one another, that share a
	// first word, that contain the boundary characters themselves, and
	// pairs of equal length.
	names := []string{
		"Film 1", "Film 12", "Film 12 Part II", "Film 2", "Film", "12",
		"Part II", "Hotel Alba 3", "Hotel Alba 31", "Hotel Alba", "Alba",
		"University of Enel 24", "University of Enel", "Enel 24", "of",
		"St. Mary", "St. Mary's College", "O'Brien", "Brien", "A", "Zed 9",
		"Zed 8", "Rome, Italy", "Rome",
	}
	sort.Strings(names)
	ps := newPhraseSet(names)

	fillers := []string{"the", "director", "of", "is", "was", "codirector", "Films", "1", "Film 123", "XFilm 1", "and"}
	seps := []string{" ", " ", " ", ". ", ", ", "'s ", "' ", ".", ",", "'", "  ", "", "-"}
	r := rand.New(rand.NewSource(5))
	sentences := []string{
		"", " ", ".", "Film 1", "Film 12", "Film 12 Part II.", "Film 1 Film 12", "Film 12 Film 1",
		"Film 1's sequel is Film 12, not Film 12 Part II", "XFilm 1 is not Film 1X", "Film 1Film 1",
		"the Film 12 Part III", "Zed 8 and Zed 9", "Zed 9 and Zed 8", "St. Mary's College.", "O'Brien's", "Rome, Italy",
	}
	for len(sentences) < 5000 {
		var b strings.Builder
		for k, n := 0, r.Intn(9); k < n; k++ {
			if r.Intn(2) == 0 {
				b.WriteString(names[r.Intn(len(names))])
			} else {
				b.WriteString(fillers[r.Intn(len(fillers))])
			}
			b.WriteString(seps[r.Intn(len(seps))])
		}
		sentences = append(sentences, b.String())
	}
	for _, sent := range sentences {
		if got, want := ps.longestIn(sent), refFindEntity(sent, names); got != want {
			t.Fatalf("longestIn(%q) = %q, reference %q", sent, got, want)
		}
	}

	var empty phraseSet
	if got := empty.longestIn("Film 1"); got != "" {
		t.Errorf("zero phraseSet matched %q", got)
	}
	if got := newPhraseSet([]string{""}).longestIn("Film 1"); got != "" {
		t.Errorf("phraseSet of the empty phrase matched %q", got)
	}
}

// TestFindSeedAttrTieIsDeterministic pins the tie rule: two seed attributes
// of equal length in one sentence resolve to the lexicographically smaller,
// every time. The former implementation ranged the seed map with a strict
// length comparison, so map iteration order picked the winner.
func TestFindSeedAttrTieIsDeterministic(t *testing.T) {
	seeds := extract.NewAttrSet()
	for _, a := range []string{"genre", "budget", "owner", "motto", "composer", "box office"} {
		seeds.Add(a, "test")
	}
	const sent = "The owner and the motto of Hotel Alba 3 is unknown."
	for i := 0; i < 50; i++ {
		// A fresh set per round: the rule must not depend on construction
		// order or on the map's iteration seed.
		ps := newPhraseSet(seeds.Names())
		if got := findSeedAttr(sent, "Hotel Alba 3", ps); got != "motto" {
			t.Fatalf("round %d: findSeedAttr = %q, want \"motto\"", i, got)
		}
	}
	// Longest still beats lexicographic order.
	ps := newPhraseSet(seeds.Names())
	if got := findSeedAttr("The budget and the box office of Film 1 is high.", "Film 1", ps); got != "box office" {
		t.Errorf("findSeedAttr = %q, want \"box office\"", got)
	}
	// The entity span is masked out: an attribute word inside it is not a mention.
	if got := findSeedAttr("The view of park Lane 7 is nice.", "park Lane 7", newPhraseSet([]string{"park"})); got != "" {
		t.Errorf("findSeedAttr = %q, want no mention", got)
	}
}
