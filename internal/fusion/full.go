package fusion

import (
	"akb/internal/hierarchy"
	"akb/internal/obs"
)

// NewFull composes the paper's complete proposed fusion method: multi-truth
// latent-truth fusion, weighted by extractor confidence scores, with
// copy-correlated sources discounted and hierarchical value spaces resolved.
// Correlations are detected from the claims themselves at fuse time.
type Full struct {
	Forest *hierarchy.Forest
	// CorrCfg configures copy detection; zero value uses defaults.
	CorrCfg CorrelationConfig
	// Workers bounds the per-item fan-out (0 = GOMAXPROCS).
	Workers int
	// Obs optionally records executor telemetry into the registry; it is
	// threaded to the composed multi-truth base.
	Obs *obs.Registry
}

// Name implements Method.
func (f *Full) Name() string { return "FULL(multi+conf+corr+hier)" }

// Fuse implements Method.
func (f *Full) Fuse(c *Claims) *Result {
	corr := DetectCorrelations(c, f.CorrCfg)
	base := &MultiTruth{Weighted: true, Discount: corr, Workers: f.Workers, Obs: f.Obs}
	m := &Hierarchical{Base: base, Forest: f.Forest}
	res := m.Fuse(c)
	res.Method = f.Name()
	return res
}

// AllMethods returns the full comparison suite for the fusion experiments:
// the three baselines, the plain multi-truth model, and the paper's
// incremental improvements up to the composed FULL method.
func AllMethods(forest *hierarchy.Forest) []Method {
	return []Method{
		&Vote{},
		&Accu{},
		&Accu{Popularity: true},
		&MultiTruth{},
		&MultiTruth{Weighted: true},
		&Hierarchical{Base: &MultiTruth{}, Forest: forest},
		&Full{Forest: forest},
	}
}
