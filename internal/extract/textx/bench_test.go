package textx

import (
	"testing"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// BenchmarkFindEntity is phase 1's entity recognition over a corpus: one op
// finds the longest entity name in every sentence. "reference" is the
// per-name scan the phrase set replaced; its cost grows with the number of
// entities, the phrase set's does not.
func BenchmarkFindEntity(b *testing.B) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 3, EntitiesPerClass: 120, AttrsPerEntity: 12})
	docs := webgen.GenerateCorpus(w, webgen.TextConfig{
		Seed: 3, DocsPerClass: 8, FactsPerDoc: 10, ValueErrorRate: 0.1, DistractorShare: 0.6,
	})
	names := extract.NewEntityIndexFromWorld(w).Names()
	var sents []string
	for _, d := range docs {
		sents = append(sents, SplitSentences(d.Text)...)
	}
	var sink string
	b.Run("phraseSet", func(b *testing.B) {
		ps := newPhraseSet(names)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sents {
				sink = ps.longestIn(s)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sents {
				sink = refFindEntity(s, names)
			}
		}
	})
	_ = sink
}
