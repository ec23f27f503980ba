package core

import (
	"context"

	"akb/internal/querystream"
	"akb/internal/resilience"
)

// Pipeline is a configured, runnable instance of the Figure-1 framework:
// New resolves a Config, Run executes it. A Pipeline is immutable after
// construction and may be run any number of times; every run with the
// same configuration produces byte-identical results.
//
// There are two ways to the Config and both are in use. The CLI, bench/
// and the examples layer the options below over DefaultConfig — they cover
// what those callers vary (seed, scale, parallelism, the optional stages,
// faults, a stage hook). Anything finer (substrate sizes and error rates,
// the fusion method or granularity, retry policy, stage timeout) is a
// Config field: the experiments and tests edit a Config and pass it with
// WithConfig.
type Pipeline struct {
	cfg Config
}

// Option adjusts a pipeline configuration during New. Options apply in
// order, so later options win when they touch the same setting.
type Option func(*Config)

// New builds a Pipeline from DefaultConfig with the options applied.
func New(opts ...Option) *Pipeline {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Pipeline{cfg: cfg}
}

// Config returns a copy of the pipeline's resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Run executes the pipeline on the dependency-DAG scheduler under the
// resilience supervisor. It returns a nil Result and a wrapped
// *resilience.StageError when a mandatory stage fails or the context is
// cancelled; optional-stage failures degrade the run (visible through
// Result.Health) but do not error.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	return runPipeline(ctx, p.cfg)
}

// WithConfig replaces the whole base configuration. It composes with the
// other options: list it first to start from an explicit Config instead of
// DefaultConfig, then layer adjustments on top.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithSeed reseeds the run: it sets both the top-level seed and the
// ground-truth world's seed, which is what the CLI's -seed flag always
// meant. Substrate-specific seeds (KBs, stream, sites, corpus) keep their
// configured offsets.
func WithSeed(seed int64) Option {
	return func(c *Config) {
		c.Seed = seed
		c.World.Seed = seed
	}
}

// WithScale multiplies the synthetic-substrate sizes by k: entities per
// class, pages per site, documents per class, and the query stream
// (total records and per-class relevant counts) all grow k-fold, so the
// fused KB grows roughly linearly in k. k <= 1 is a no-op. Scaling
// composes with WithSeed and WithConfig when listed after them.
func WithScale(k int) Option {
	return func(c *Config) {
		if k <= 1 {
			return
		}
		c.World.EntitiesPerClass *= k
		c.Sites.PagesPerSite *= k
		c.Corpus.DocsPerClass *= k
		c.Stream.TotalRecords *= k
		// Copy the plan slice so a caller-owned Config (WithConfig) is not
		// mutated through the shared backing array.
		plans := make([]querystream.ClassPlan, len(c.Stream.Plans))
		copy(plans, c.Stream.Plans)
		for i := range plans {
			plans[i].Relevant *= k
			// The noncredible pool must grow with the relevant volume or
			// the generator cannot place the below-threshold remainder.
			plans[i].NoncrediblePool *= k
		}
		c.Stream.Plans = plans
	}
}

// WithParallelism bounds how many independent stages execute concurrently
// on the DAG scheduler; n <= 1 runs strictly serially. Results are
// byte-identical at any value.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithAlignment enables pre-fusion normalisation (synonym merging,
// misspelling correction, sub-attribute identification) at align's fixed
// thresholds.
func WithAlignment() Option {
	return func(c *Config) { c.Align = true }
}

// WithEntityDiscovery enables joint entity linking and discovery at
// entitydisc's fixed thresholds: a mention links to a known entity within
// one edit, unknown mentions merge within two, and two facts make an
// entity.
func WithEntityDiscovery() Option {
	return func(c *Config) { c.DiscoverEntities = true }
}

// WithListPages enables multi-record list-page generation
// (webgen.GenerateListPages) and extraction.
func WithListPages() Option {
	return func(c *Config) { c.ListPages = true }
}

// WithTemporal enables temporal knowledge extraction and timeline fusion.
func WithTemporal() Option {
	return func(c *Config) { c.Temporal = true }
}

// WithFaults injects a deterministic fault plan through the resilience
// harness; nil runs fault-free.
func WithFaults(plan *resilience.FaultPlan) Option {
	return func(c *Config) { c.Faults = plan }
}

// WithStageHook observes every supervised stage start. With parallelism
// above one the hook fires from concurrent stage goroutines and must be
// safe for concurrent use.
func WithStageHook(hook func(stage string)) Option {
	return func(c *Config) { c.StageHook = hook }
}
