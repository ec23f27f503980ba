package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"akb/internal/core"
	"akb/internal/fusion"
	"akb/internal/htmldom"
	"akb/internal/obs"
	"akb/internal/store"
	"akb/internal/webgen"
)

// Span names of the build journey.
const (
	spanPipeline    = "build/pipeline" // one traced parallelism-1 run; its children are stage/<name>
	spanStagePrefix = "stage/"
	spanResultFacts = "build/store.result_facts"
	spanHTMLParse   = "probe/htmldom.parse"
	spanBuildClaims = "probe/fusion.build_claims"
	spanFuse        = "probe/fusion.fuse"
	spanIndex       = "probe/store.index"
	spanShard       = "probe/store.shard"
)

// built is one pipeline run's outcome.
type built struct {
	res     *core.Result
	facts   []store.Fact
	seconds float64 // core.Run + store.ResultFacts
	alloc   uint64  // bytes allocated meanwhile, process-wide
}

func (r *run) buildOptions(parallelism int) []core.Option {
	opts := []core.Option{core.WithSeed(r.seed), core.WithScale(r.w.buildScale), core.WithParallelism(parallelism)}
	return append(opts, r.w.buildOpts...)
}

// buildOnce runs corpus → fused KB facts once. When traced it opens a span
// at every stage start: the serial scheduler runs the stages back to back
// on this goroutine, so each span ends where the next begins and the last
// one ends when Run returns.
func (r *run) buildOnce(parallelism int, traced bool) (*built, error) {
	opts := r.buildOptions(parallelism)
	var root, stage *obs.Span
	if traced {
		var ctx context.Context
		ctx, root = obs.StartSpan(r.tr.ctx, spanPipeline)
		opts = append(opts, core.WithStageHook(func(name string) {
			stage.End()
			_, stage = obs.StartSpan(ctx, spanStagePrefix+name)
		}))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.New(opts...).Run(context.Background())
	stage.End()
	root.End()
	if err != nil {
		return nil, err
	}
	var facts []store.Fact
	if traced {
		r.tr.span(spanResultFacts, func() { facts = store.ResultFacts(res) })
	} else {
		facts = store.ResultFacts(res)
	}
	b := &built{res: res, facts: facts, seconds: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	b.alloc = after.TotalAlloc - before.TotalAlloc
	return b, nil
}

// factsSHA is the sha256 of the facts in the store's canonical order: the
// KB's identity, which every build of one seed must reproduce.
func factsSHA(facts []store.Fact) string {
	h := sha256.New()
	for _, f := range store.New(facts).Facts() {
		fmt.Fprintf(h, "%q %q %q %q %v %d %q\n", f.Entity, f.Class, f.Attr, f.Value, f.Confidence, f.Sources, f.Ancestors)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkBuild is the build journey's correctness check: every stage OK and
// the same KB as every other build of this run, whatever the parallelism.
func (r *run) checkBuild(b *built, err error) {
	if err == nil {
		if h := b.res.Health(); !h.Healthy() {
			err = fmt.Errorf("build: %s", h)
		}
	}
	if err == nil {
		sha := factsSHA(b.facts)
		if r.kbSHA == "" {
			r.kbSHA = sha
		} else if sha != r.kbSHA {
			err = fmt.Errorf("build: kb_sha256 %s differs from this run's first build %s", sha, r.kbSHA)
		}
	}
	r.op(err)
}

// buildRound is one round's share of the build journey, corpus → fused KB:
// one build at parallelism 1. The traced run adds a parallelism-1 build
// under stage spans and one at parallelism 2 (fixed at 2, not NumCPU, so the
// number means the same on every box; two workers on a shared 2-core box
// repeat too badly to carry a bound, so the number is a per-layer one). A
// round builds when the journey is behind its share of the run's time, or
// when the sizes.buildRounds builds every run owes would otherwise not be
// spread evenly over the rounds.
func (r *run) buildRound(round int) bool {
	behind := r.buildSpent <= r.share(buildShare)*time.Duration(round)/rounds
	owed := len(r.serial) < r.sizes.buildRounds && round == len(r.serial)*rounds/r.sizes.buildRounds
	if !behind && !owed {
		return true
	}
	start := time.Now()
	defer func() { r.buildSpent += time.Since(start) }()

	b, err := r.buildOnce(1, false)
	r.checkBuild(b, err)
	if err != nil {
		return false
	}
	r.serial = append(r.serial, b.seconds)
	r.alloc = append(r.alloc, float64(b.alloc)/1e6)
	if r.tr == nil {
		return true
	}
	r.lastBuilt = b // for the layer probes
	b, err = r.buildOnce(1, true)
	r.checkBuild(b, err)
	if err != nil {
		return false
	}
	r.tracedSerial = append(r.tracedSerial, b.seconds)
	b, err = r.buildOnce(2, false)
	r.checkBuild(b, err)
	if err != nil {
		return false
	}
	r.par = append(r.par, b.seconds)
	return true
}

// buildFinish reports the build journey. Each time is the fastest of its
// rounds: see the note on estimators at measure.
func (r *run) buildFinish() {
	r.samples["build"] = len(r.serial)
	if r.tr == nil {
		r.set("build_s", slices.Min(r.serial))
		r.set("build_alloc_mb", median(r.alloc))
		return
	}
	r.set("build_par_s", slices.Min(r.par))
	r.set("sched.par_speedup", slices.Min(r.serial)/slices.Min(r.par))
	r.set("trace.build_overhead_share", (slices.Min(r.tracedSerial)-slices.Min(r.serial))/slices.Min(r.serial))
	r.buildProbes(r.lastBuilt)
}

// buildProbes calls single layers of the build journey directly, on the
// inputs the pipeline fed them, and records the exact per-seed counts.
func (r *run) buildProbes(b *built) {
	cfg := core.New(r.buildOptions(1)...).Config()
	sites := webgen.GenerateSites(b.res.World, cfg.Sites)
	var claims *fusion.Claims
	var sharded *store.Sharded
	for i := 0; i < r.sizes.probeReps; i++ {
		r.tr.span(spanHTMLParse, func() {
			for _, s := range sites {
				for _, p := range s.Pages {
					htmldom.Parse(p.HTML)
				}
			}
		})
		r.tr.span(spanBuildClaims, func() { claims = fusion.BuildClaims(b.res.Statements, cfg.Granularity) })
		r.tr.span(spanFuse, func() { (&fusion.Full{Forest: b.res.World.Hier, Workers: 1}).Fuse(claims) })
		r.tr.span(spanIndex, func() { store.New(b.facts) })
		r.tr.span(spanShard, func() { sharded = store.NewSharded(b.facts, fixtureShards) })
	}
	r.set("extract.statements", float64(len(b.res.Statements)))
	r.set("fusion.claims", float64(claims.NumClaims()))
	r.set("fusion.items", float64(len(claims.Items)))
	r.set("store.facts", float64(sharded.Len()))
}

// buildLayers turns the build journey's spans into layer metrics: the stage
// spans of the fastest traced pipeline run, each charged to its layer, and
// the fastest call of every directly probed layer.
func (r *run) buildLayers(s *spanSet) error {
	roots := s.byName[spanPipeline]
	if len(roots) == 0 {
		return fmt.Errorf("trace has no %q span", spanPipeline)
	}
	root := slices.MinFunc(roots, func(a, b obs.SpanReport) int { return cmp.Compare(a.DurationNS, b.DurationNS) })
	for _, layer := range stageLayer {
		r.set(layer, 0) // a stage this pipeline does not run stays at 0
	}
	var covered int64
	for _, sp := range s.children[root.ID] {
		layer, ok := stageLayer[sp.Name[len(spanStagePrefix):]]
		if !ok {
			return fmt.Errorf("pipeline stage %q has no layer metric", sp.Name)
		}
		r.set(layer, r.metrics[layer]+float64(sp.DurationNS)/1e6)
		covered += sp.DurationNS
	}
	share := float64(covered) / float64(root.DurationNS)
	r.set("core.stage_sum_share", share)
	if share < 0.97 {
		return fmt.Errorf("stage spans cover %.3f of the pipeline run, want at least 0.97", share)
	}
	for name, span := range map[string]string{
		"htmldom.parse_ms":       spanHTMLParse,
		"fusion.build_claims_ms": spanBuildClaims,
		"fusion.fuse_ms":         spanFuse,
		"store.result_facts_ms":  spanResultFacts,
		"store.index_ms":         spanIndex,
		"store.shard_ms":         spanShard,
	} {
		v, err := s.fastestOf(span, 1e6)
		if err != nil {
			return err
		}
		r.set(name, v)
	}
	return nil
}
