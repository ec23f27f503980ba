package querystream_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/extract/qsx"
	"akb/internal/kb"
	"akb/internal/querystream"
)

// TestNoiseIsRelevantToNoClass: a stream planned for no class is all noise,
// and the query-stream extractor finds none of its records relevant to any
// class — whether it names a site, an entity without asking about it, an
// entity no class has inside a question pattern, or nothing at all. The
// question about nobody and the entity named without a question each make
// about a quarter of the records.
func TestNoiseIsRelevantToNoClass(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 2, EntitiesPerClass: 20, AttrsPerEntity: 12})
	idx := extract.NewEntityIndexFromWorld(w)
	names := idx.Names()
	for _, seed := range []int64{1, 2, 7} {
		s := querystream.Generate(w, querystream.GenConfig{Seed: seed, TotalRecords: 4000, Plans: []querystream.ClassPlan{}})
		questions, mentions := 0, 0
		for _, rec := range s.Records {
			if attr, entity, ok := qsx.MatchPattern(rec.Text, idx); ok {
				t.Fatalf("seed %d: noise record %q asks for %q of %q", seed, rec.Text, attr, entity)
			}
			if strings.HasPrefix(rec.Text, "what is the capital of ") {
				questions++
			}
			if slices.ContainsFunc(names, func(name string) bool { return strings.HasPrefix(rec.Text, name+" ") }) {
				mentions++
			}
		}
		if res := qsx.Extract(context.Background(), s, idx, nil); len(res.PerClass) != 0 || min(questions, mentions) < 800 || max(questions, mentions) > 1200 {
			t.Errorf("seed %d: %d classes found relevant records among %d noise records, %d questions and %d mentions", seed, len(res.PerClass), s.Len(), questions, mentions)
		}
	}
}
