package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"

	"akb/internal/datalog"
	"akb/internal/store"
)

// Every generator below draws from its own stream derived from the run
// seed, so a workload's inputs depend on the seed alone: not on which
// other generators ran, nor on how long a measuring window lasted.
func rng(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

type reqKind uint8

const (
	kindEntity reqKind = iota
	kindTriples
	kindQuery
	kindDatalog
)

// request is one generated HTTP request plus what the benchmark needs to
// check its answer and to replay it against a single layer.
type request struct {
	kind   reqKind
	method string
	target string // request URI
	body   []byte // POST body; nil for GET
	wire   []byte // the request as sent on the connection

	// The same read expressed against the store, for the layer probes.
	entity, attr string
	pattern      store.Pattern
	limit        int
	query        string // datalog text

	// Reference answer, computed at set-up through a second server's
	// Handler() over the same store.
	wantLen int
	wantSum uint64
}

// seqLen is the length of a generated request order: more than twice what
// one connection sends in a run, because the connections start half the
// order apart and one that reached the other's start would replay exactly
// the requests that filled the server's cache.
const seqLen = 1 << 20

// traffic is a request pool and the order in which its requests are sent.
// Every connection keeps its own place in the order from window to window,
// so a later window goes on where the earlier one stopped and does not send
// the same requests again.
type traffic struct {
	pool []request
	seq  []int32
	pos  [connections]int
}

// newTraffic starts the connections evenly spread over the order.
func newTraffic(pool []request, seq []int32) *traffic {
	t := &traffic{pool: pool, seq: seq}
	for i := range t.pos {
		t.pos[i] = i * len(seq) / connections
	}
	return t
}

// next returns connection i's next request.
func (t *traffic) next(i int) *request {
	req := &t.pool[t.seq[t.pos[i]%len(t.seq)]]
	t.pos[i]++
	return req
}

func getRequest(kind reqKind, target string) request {
	return request{
		kind: kind, method: "GET", target: target,
		wire: []byte("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n"),
	}
}

func entityRequest(entity string) request {
	r := getRequest(kindEntity, "/v1/entity/"+url.PathEscape(entity))
	r.entity = entity
	return r
}

func triplesRequest(entity, attr string) request {
	r := getRequest(kindTriples, "/v1/triples/"+url.PathEscape(entity)+"/"+url.PathEscape(attr))
	r.entity, r.attr = entity, attr
	return r
}

// Every generated /v1/query carries a limit of 1 to queryLimit and every
// datalog query datalogLimit, so an answer holds a bounded number of facts
// whatever its pattern matches.
const (
	queryLimit   = 50
	datalogLimit = 100
)

func queryRequest(p store.Pattern, limit int) request {
	v := url.Values{"limit": {fmt.Sprint(limit)}}
	if p.Class != "" {
		v.Set("class", p.Class)
	}
	if p.Attr != "" {
		v.Set("attr", p.Attr)
	}
	if p.Value != "" {
		v.Set("value", p.Value)
	}
	r := getRequest(kindQuery, "/v1/query?"+v.Encode())
	r.pattern, r.limit = p, limit
	return r
}

func datalogRequest(q datalog.Query) request {
	text := q.String()
	body, _ := json.Marshal(map[string]any{"query": text, "limit": datalogLimit})
	head := fmt.Sprintf("POST /v1/datalog HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	return request{
		kind: kindDatalog, method: "POST", target: "/v1/datalog", body: body,
		wire: append([]byte(head), body...), query: text, limit: datalogLimit,
	}
}

// kbShape is what the traffic generators read off the fixture's facts
// (which arrive in the store's canonical order, so every slice below is
// deterministic for a seed).
type kbShape struct {
	entities []string
	pairs    [][2]string                // distinct (entity, attr)
	hasPair  map[[2]string]bool         // the same as a set
	withAnc  []store.Fact               // facts whose value has hierarchy ancestors
	core     map[string][]string        // class -> attrs most of its entities carry
	byAttr   map[[2]string][]store.Fact // (class, attr) -> facts
	classes  []string
	facts    []store.Fact
}

func shapeOf(facts []store.Fact) *kbShape {
	s := &kbShape{facts: facts, hasPair: map[[2]string]bool{}, core: map[string][]string{}, byAttr: map[[2]string][]store.Fact{}}
	perClass := map[string]int{}
	var lastE string
	var lastP [2]string
	for i, f := range facts {
		if i == 0 || f.Entity != lastE {
			s.entities = append(s.entities, f.Entity)
			lastE = f.Entity
			perClass[f.Class]++
		}
		if p := [2]string{f.Entity, f.Attr}; i == 0 || p != lastP {
			s.pairs = append(s.pairs, p)
			s.hasPair[p] = true
			lastP = p
		}
		if len(f.Ancestors) > 0 {
			s.withAnc = append(s.withAnc, f)
		}
		if f.Class != "" {
			k := [2]string{f.Class, f.Attr}
			s.byAttr[k] = append(s.byAttr[k], f)
		}
	}
	for k, fs := range s.byAttr {
		// A "core" attribute is one at least half the class's entities
		// carry: joins over core attributes have answers on every seed.
		if 2*len(fs) >= perClass[k[0]] {
			s.core[k[0]] = append(s.core[k[0]], k[1])
		}
	}
	for c, attrs := range s.core {
		sort.Strings(attrs)
		if len(attrs) >= 3 {
			s.classes = append(s.classes, c)
		}
	}
	sort.Strings(s.classes)
	return s
}

// hotKeys is the size of each of the two hot key sets. 2*hotKeys is a
// quarter of the server's default cache, so after warm-up every hot
// request is a cache hit.
const hotKeys = 512

// hotTraffic is entity and triples reads 1:1, each Zipf(1.1) over a
// seeded choice of hotKeys targets.
func hotTraffic(s *kbShape, seed int64) *traffic {
	r := rng(seed, "hot")
	ne, np := min(hotKeys, len(s.entities)), min(hotKeys, len(s.pairs))
	var pool []request
	for _, i := range r.Perm(len(s.entities))[:ne] {
		pool = append(pool, entityRequest(s.entities[i]))
	}
	for _, i := range r.Perm(len(s.pairs))[:np] {
		pool = append(pool, triplesRequest(s.pairs[i][0], s.pairs[i][1]))
	}
	ze := rand.NewZipf(r, 1.1, 1, uint64(ne-1))
	zp := rand.NewZipf(r, 1.1, 1, uint64(np-1))
	seq := make([]int32, seqLen)
	for i := range seq {
		if i%2 == 0 {
			seq[i] = int32(ze.Uint64())
		} else {
			seq[i] = int32(ne + int(zp.Uint64()))
		}
	}
	return newTraffic(pool, seq)
}

// wideQueries is how many distinct /v1/query requests the wide mix draws
// from. The KB has only some thousand class+attr pairs and some hundred
// hierarchy ancestors, and the server's cache is keyed by URL: it is the
// limit, 1 to queryLimit as clients vary it, that makes these requests as
// many as the mix needs to stay wider than the cache.
const wideQueries = 8192

// wideTraffic is entity : triples : query = 2:5:3, uniform over every
// entity, every (entity, attr) pair and wideQueries seeded queries of three
// shapes in equal shares (class+attr, attr+value, hierarchy-ancestor value).
func wideTraffic(s *kbShape, seed int64) *traffic {
	r := rng(seed, "wide")
	var pool []request
	for _, e := range s.entities {
		pool = append(pool, entityRequest(e))
	}
	for _, p := range s.pairs {
		pool = append(pool, triplesRequest(p[0], p[1]))
	}
	qBase := len(pool)
	type query struct {
		p     store.Pattern
		limit int
	}
	seen := map[query]bool{}
	for tries := 0; len(seen) < wideQueries && tries < 20*wideQueries; tries++ {
		var p store.Pattern
		switch f := s.facts[r.Intn(len(s.facts))]; tries % 3 {
		case 0:
			p = store.Pattern{Class: f.Class, Attr: f.Attr}
		case 1:
			p = store.Pattern{Attr: f.Attr, Value: f.Value}
		default:
			f = s.withAnc[r.Intn(len(s.withAnc))]
			p = store.Pattern{Value: f.Ancestors[r.Intn(len(f.Ancestors))]}
		}
		q := query{p, 1 + r.Intn(queryLimit)}
		if p == (store.Pattern{}) || seen[q] {
			continue
		}
		seen[q] = true
		pool = append(pool, queryRequest(q.p, q.limit))
	}
	nq := len(pool) - qBase
	seq := make([]int32, seqLen)
	for i := range seq {
		switch u := r.Intn(10); {
		case u < 2:
			seq[i] = int32(r.Intn(len(s.entities)))
		case u < 7:
			seq[i] = int32(len(s.entities) + r.Intn(len(s.pairs)))
		default:
			seq[i] = int32(qBase + r.Intn(nq))
		}
	}
	return newTraffic(pool, seq)
}

// datalogRounds is how many times the 4:4:1:1 template block is
// instantiated; every round moves to the next class so no seed's mix rests
// on one class's shape, and the rounds are many so that it does not rest on
// a few drawn constants either (over 8 seeds the mean cost of 4 rounds'
// queries ranged by 20%, most of it the selective-constant joins).
const datalogRounds = 12

// datalogQueries instantiates the four templates over the fixture: per
// round, four 2-clause entity joins, four selective-constant joins, one
// value-position hash join and one 3-clause chain.
func datalogQueries(s *kbShape, seed int64) []datalog.Query {
	r := rng(seed, "datalog")
	v, c := datalog.V, datalog.C
	var out []datalog.Query
	n := 0
	pick := func() (class string, attrs []string) {
		class = s.classes[n%len(s.classes)]
		n++
		core := s.core[class]
		idx := r.Perm(len(core))
		return class, []string{core[idx[0]], core[idx[1]], core[idx[2]]}
	}
	for round := 0; round < datalogRounds; round++ {
		for i := 0; i < 4; i++ {
			class, a := pick()
			out = append(out, datalog.Query{Clauses: []datalog.Clause{
				{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
				{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			}})
		}
		for i := 0; i < 4; i++ {
			class, a := pick()
			// The constant comes from an entity that also carries the
			// joined attribute, so the join has an answer.
			fs := s.byAttr[[2]string{class, a[0]}]
			f := fs[r.Intn(len(fs))]
			for try := 0; !s.hasPair[[2]string{f.Entity, a[1]}] && try < len(fs); try++ {
				f = fs[(r.Intn(len(fs))+try)%len(fs)]
			}
			out = append(out, datalog.Query{Clauses: []datalog.Clause{
				{Entity: v("f"), Attr: c(a[0]), Value: c(f.Value)},
				{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			}})
		}
		class, a := pick()
		out = append(out, datalog.Query{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("v")},
			{Entity: v("g"), Class: class, Attr: c(a[0]), Value: v("v")},
		}})
		class, a = pick()
		out = append(out, datalog.Query{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			{Entity: v("f"), Attr: c(a[2]), Value: v("z")},
		}})
	}
	return out
}

// datalogTraffic sends the instantiated templates uniformly, which keeps
// the 4:4:1:1 shares of datalogQueries.
func datalogTraffic(queries []datalog.Query, seed int64) *traffic {
	r := rng(seed, "datalog-order")
	pool := make([]request, len(queries))
	for i, q := range queries {
		pool[i] = datalogRequest(q)
	}
	seq := make([]int32, seqLen)
	for i := range seq {
		seq[i] = int32(r.Intn(len(pool)))
	}
	return newTraffic(pool, seq)
}
