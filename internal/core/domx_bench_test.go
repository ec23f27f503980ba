package core_test

import (
	"context"
	"testing"

	"akb/internal/confidence"
	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/extract/domx"
	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// BenchmarkDomxStage times the DOM extraction stage over a pipeline run's
// own sites, entity index and seed sets (seed 3, scale 4: 20 sites, 1120
// pages, 1.24 MB of HTML): "parse" is every page through the one-shot
// htmldom.Parse, which is what bench/'s htmldom.parse_ms probe calls;
// "extract" the stage as core's extractDOM runs it, page bytes to counted
// claims, the parse inside the class shards; "both" the two one after
// the other. Profile from here:
//
//	go test ./internal/core -run '^$' -bench DomxStage/extract -cpu 1 -cpuprofile cpu.pprof
func BenchmarkDomxStage(b *testing.B) {
	pl := core.New(core.WithSeed(3), core.WithScale(4))
	res, err := pl.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg := pl.Config()
	sites := webgen.GenerateSites(res.World, cfg.Sites)
	idx := extract.NewEntityIndex(kb.GenerateFreebase(res.World, cfg.Freebase))
	crit := confidence.Default()
	pages, bytes := 0, 0
	for _, s := range sites {
		pages += len(s.Pages)
		for _, p := range s.Pages {
			bytes += len(p.HTML)
		}
	}
	b.Logf("%d sites, %d pages, %d bytes", len(sites), pages, bytes)
	parse := func() {
		for _, s := range sites {
			for _, p := range s.Pages {
				htmldom.Parse(p.HTML)
			}
		}
	}
	extract := func(b *testing.B) {
		r := domx.Extract(context.Background(), domx.FromWebgen(sites), idx, res.SeedSets, cfg.DOM, crit)
		if r.Claims.Len() != res.DOMX.Claims.Len() {
			b.Fatalf("%d statements, the run had %d", r.Claims.Len(), res.DOMX.Claims.Len())
		}
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parse()
		}
	})
	b.Run("extract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			extract(b)
		}
	})
	b.Run("both", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parse()
			extract(b)
		}
	})
}
