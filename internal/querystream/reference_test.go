package querystream

import (
	"math/rand"
	"strings"
	"testing"

	"akb/internal/kb"
)

// The references: the proper noun and the noise record as they were built
// before they were appended into one buffer — a Builder, a ToUpper and a
// concat per noun, a concat and a ToLower per record.

var referenceSyllables = []string{
	"al", "an", "ar", "bel", "ber", "bo", "ca", "cas", "da", "del", "den",
	"do", "el", "en", "fa", "fer", "ga", "gran", "ha", "hel", "il", "ka",
	"kor", "la", "lan", "len", "lo", "ma", "mar", "mel", "mi", "mon", "na",
	"nor", "ol", "or", "pa", "per", "ra", "ren", "ro", "sa", "sel", "ta",
	"tor", "va", "ver", "vi", "wes", "zan",
}

func referenceProperNoun(r *rand.Rand, syllables int) string {
	var b strings.Builder
	for i := 0; i < syllables; i++ {
		b.WriteString(referenceSyllables[r.Intn(len(referenceSyllables))])
	}
	s := b.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

func referenceNoiseRecord(w *kb.World, classes []string, r *rand.Rand) Record {
	switch r.Intn(4) {
	case 0: // navigational
		return Record{
			Text:   noiseSites[r.Intn(len(noiseSites))] + " " + noiseTails[r.Intn(len(noiseTails))],
			Origin: origin(r),
		}
	case 1: // entity mention without a pattern
		entities := w.EntitiesOf(classes[r.Intn(len(classes))])
		return Record{
			Text:   entities[r.Intn(len(entities))].Name + " " + noiseTails[r.Intn(len(noiseTails))],
			Origin: origin(r),
		}
	case 2: // pattern with an unknown entity
		return Record{
			Text:   "what is the capital of " + referenceProperNoun(r, 3) + " Nowhere",
			Origin: origin(r),
		}
	default: // word salad
		return Record{
			Text:   strings.ToLower(referenceProperNoun(r, 2) + " " + referenceProperNoun(r, 2)),
			Origin: origin(r),
		}
	}
}

// TestNoiseRecordsMatchReference: record after record, noiseRecord returns
// the reference's bytes and leaves the generator where the reference leaves
// its own — the same draws in the same order — for all four kinds of record;
// and kb.RandomProperNoun is the reference's noun at every length in use.
func TestNoiseRecordsMatchReference(t *testing.T) {
	w := smallWorld()
	classes := w.Ontology.ClassNames()
	for _, seed := range []int64{1, 2, 7} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		kinds := map[bool]int{}
		for i := 0; i < 4000; i++ {
			g, r := noiseRecord(w, classes, got), referenceNoiseRecord(w, classes, want)
			if g != r {
				t.Fatalf("seed %d record %d: %+v, want %+v", seed, i, g, r)
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d record %d: the generator is elsewhere after it (%d, want %d)", seed, i, a, b)
			}
			kinds[strings.HasSuffix(g.Text, " Nowhere")]++
		}
		if kinds[true] < 800 || kinds[false] < 2400 {
			t.Fatalf("seed %d: %d capital-of-Nowhere records of 4000", seed, kinds[true])
		}
		for n := 1; n <= 9; n++ {
			if g, r := kb.RandomProperNoun(got, n), referenceProperNoun(want, n); g != r {
				t.Fatalf("seed %d: %d syllables: %q, want %q", seed, n, g, r)
			}
		}
	}
}
