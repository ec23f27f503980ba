package main

import "akb/internal/core"

type mixKind int

const (
	mixHot mixKind = iota
	mixWide
	mixDatalog
)

// workload is one set of inputs for the whole pipe. Every run takes all
// three journeys — corpus → fused KB, snapshot file → first answer, HTTP
// request → bytes on the wire — and reports every end-to-end metric; a
// workload fixes what each journey is fed:
//
//	build journey     the corpus scale and the optional stages of the pipeline
//	snapshot journey  the scale of the KB that is written and cold-started
//	serving journey   the request mix sent to a server over that KB
//
// Each input has two or three values and the three workloads cover them
// all; the journeys do not feed each other within a run, so the metrics of
// one journey compare across two workloads that differ in its input alone.
// The metrics that should move with each input, and the ones that should
// not, are listed in README.md.
type workload struct {
	name string
	why  string

	buildScale int
	buildOpts  []core.Option
	kbScale    int
	mix        mixKind
	openRate   int // requests per second of the open-loop window: about a fifth of what the closed loop reaches on the mix
}

var fullPipeline = []core.Option{
	core.WithListPages(), core.WithTemporal(), core.WithEntityDiscovery(), core.WithAlignment(),
}

var workloads = []workload{
	{
		name: "serve-hot", buildScale: 2, kbScale: 4, mix: mixHot, openRate: 10000,
		why: "default pipeline on a scale-2 corpus, scale-4 KB, Zipf(1.1) reads over 1024 keys, a quarter of the cache: net/http and the middleware stack are the request",
	},
	{
		name: "serve-wide", buildScale: 2, buildOpts: fullPipeline, kbScale: 16, mix: mixWide, openRate: 5000,
		why: "every optional stage on (batch claim path), 4x larger KB, uniform entity:triples:query 2:5:3 over about 59k keys, 14x the cache: store reads and JSON are the request",
	},
	{
		name: "datalog", buildScale: 4, kbScale: 16, mix: mixDatalog, openRate: 1000,
		why: "default pipeline on a scale-4 corpus, scale-16 KB, POST /v1/datalog joins (entity, constant+join, value hash, 3-clause chain): parse, plan and probes are the request",
	},
}
