// Package confidence implements the unified confidence-assignment criterion
// the paper proposes for extraction uncertainty: every extractor scores its
// triples on the same [0, 1] scale so the fusion phase can compare and
// weight claims across extractors.
//
// The criterion combines three monotone factors:
//
//		confidence = prior(extractor) * supportFactor(support) * agreementFactor(sources)
//
//	  - prior(extractor): the extractor family's intrinsic reliability
//	    (curated-KB extraction is more reliable than open-Web DOM induction);
//	  - supportFactor: how often the pattern/claim was observed, saturating
//	    via s/(s+k) so early observations matter most;
//	  - agreementFactor: how many distinct sources contributed, likewise
//	    saturating.
//
// The output is clamped to [MinConfidence, MaxConfidence] so no claim is
// ever treated as impossible or certain — fusion methods rely on that.
package confidence

import (
	"akb/internal/extract"
)

// Bounds of assigned confidence scores.
const (
	MinConfidence = 0.05
	MaxConfidence = 0.99
)

// Criterion is the unified scoring configuration shared by all extractors.
type Criterion struct {
	// Priors maps extractor name to its intrinsic reliability prior.
	Priors map[string]float64
	// SupportHalf is the support count at which supportFactor reaches 1/2.
	SupportHalf float64
	// SourceHalf is the distinct-source count at which agreementFactor
	// reaches 1/2 of its range above the floor.
	SourceHalf float64
}

// Default returns the standard criterion. Priors order the extractor
// families by the reliability the paper attributes to them: existing KBs >
// query stream > Web text > DOM trees (open-Web structural induction is the
// noisiest).
func Default() *Criterion {
	return &Criterion{
		Priors: map[string]float64{
			extract.ExtractorKB:    0.95,
			extract.ExtractorQuery: 0.85,
			extract.ExtractorText:  0.75,
			extract.ExtractorDOM:   0.70,
		},
		SupportHalf: 2,
		SourceHalf:  1.5,
	}
}

// Prior returns the extractor's reliability prior (0.5 for unknown
// extractors, a neutral default).
func (c *Criterion) Prior(extractor string) float64 {
	if p, ok := c.Priors[extractor]; ok {
		return p
	}
	return 0.5
}

// Score assigns the unified confidence for a claim observed `support` times
// across `sources` distinct origins by `extractor`.
func (c *Criterion) Score(extractor string, support, sources int) float64 {
	if support < 1 {
		support = 1
	}
	if sources < 1 {
		sources = 1
	}
	prior := c.Prior(extractor)
	sf := float64(support) / (float64(support) + c.SupportHalf)
	// agreementFactor has a floor of 0.6 at one source so single-source
	// claims are discounted but not destroyed.
	af := 0.6 + 0.4*float64(sources-1)/(float64(sources-1)+c.SourceHalf)
	conf := prior * sf * af
	return clamp(conf)
}

// ScoreFunc returns the extractor's scoring rule over (support, sources),
// the form extract.Evidence takes it in. A nil Criterion means the caller
// asked for no scoring: every claim gets the neutral 0.5.
func (c *Criterion) ScoreFunc(extractor string) func(support, sources int) float64 {
	if c == nil {
		return func(int, int) float64 { return 0.5 }
	}
	return func(support, sources int) float64 { return c.Score(extractor, support, sources) }
}

// ScoreAttrSet assigns confidences to every attribute in the set in place
// and returns the set for chaining.
func (c *Criterion) ScoreAttrSet(extractor string, s extract.AttrSet) extract.AttrSet {
	for _, ev := range s {
		ev.Confidence = c.Score(extractor, ev.Support, len(ev.Sources))
	}
	return s
}

func clamp(v float64) float64 {
	if v < MinConfidence {
		return MinConfidence
	}
	if v > MaxConfidence {
		return MaxConfidence
	}
	return v
}
