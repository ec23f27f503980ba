package datalog

import (
	"context"
	"sync"
	"sync/atomic"

	"akb/internal/store"
)

// Options tunes one query execution.
type Options struct {
	// Parallelism is the number of workers the batched executor uses.
	// Values <= 1 run the serial path. Any value yields byte-identical
	// results: work is split into fixed-size batches of the first
	// clause's stream and reassembled in batch order.
	Parallelism int
	// Naive executes the clauses in query order instead of the greedy
	// plan — the benchmark baseline. Both plans produce the same bag of
	// rows and the same Total, but each emits its own nested-loop
	// order, so cross-plan comparisons should sort.
	Naive bool
}

// batchSize is the number of first-clause facts per parallel work unit.
// The decomposition is a function of the stream alone — never of the
// worker count — which is what makes parallel execution deterministic.
const batchSize = 256

// Run plans and executes the query against the store. It returns every
// binding of the query's variables (projected onto q.Select when set),
// capped at q.Limit rows with the total match count exact.
func Run(ctx context.Context, src store.Querier, q Query, opts Options) (*Result, error) {
	var (
		plan *Plan
		err  error
	)
	if opts.Naive {
		plan, err = NaivePlan(q, src)
	} else {
		plan, err = PlanQuery(q, src)
	}
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, src, q, plan, opts)
}

// RunPlan executes a pre-built plan. The plan must come from PlanQuery
// or NaivePlan over the same query.
func RunPlan(ctx context.Context, src store.Querier, q Query, plan *Plan, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sh, err := compile(ctx, src, q, plan)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 1 {
		return runParallel(sh, opts.Parallelism)
	}
	r := newRunner(sh)
	r.probe(sh.steps[0].base, 0) // the first clause's full stream drives the rest
	if r.err != nil {
		return nil, r.err
	}
	return &Result{
		Vars:      sh.outVars,
		Rows:      r.rows,
		Total:     r.total,
		Truncated: r.total > len(r.rows),
		Probes:    r.probes + sh.buildProbes,
	}, nil
}

// shared is the per-execution read-only state: the compiled steps
// (including any hash relations, built once), the store and the
// projection. Parallel workers share one instance.
type shared struct {
	ctx     context.Context
	src     store.Querier
	steps   []execStep
	nvars   int
	selIdx  []int
	outVars []string
	limit   int
	// buildProbes counts the index reads spent building hash relations,
	// charged once to the final result rather than per worker.
	buildProbes int64
}

// execStep is one compiled plan step: the clause's constant skeleton
// plus, per position (entity, attr, value), what to do with a variable
// there — substitute a bound slot into the pattern before probing
// (subs), bind the fact's field into a slot (binds), or equality-check
// the field against a slot bound earlier in the same clause (checks).
// Slots are indices into the runner's binding row; -1 means inactive.
type execStep struct {
	base     store.Pattern
	strategy Strategy
	subs     [3]int
	binds    [3]int
	checks   [3]int
	// keepRun: the step binds its entity variable off a cursor and a later
	// probe joins on it, so the entity's run is kept beside the binding.
	keepRun bool
	// inRun: the probe's entity is such a variable, so it reads inside the
	// kept run instead of opening a read on the store.
	inRun bool
	// keySlot is the binding slot whose value keys the hash relation;
	// -1 on a cross-product hash step (single bucket under "").
	keySlot int
	// rel is the hash relation of a StrategyHash step.
	rel relation
}

// relation is a hash step's build side: the clause's base relation grouped
// by exact value, facts — by reference into the store — in canonical order
// within each bucket so probing emits nested-loop order. Like the store's
// postings it is one key map, one offset slice and one arena however many
// keys it holds.
type relation struct {
	list  map[string]int32 // key → bucket number
	off   []int32          // bucket i is arena[off[i]:off[i+1]]
	arena []*store.Fact
}

func (r *relation) bucket(key string) []*store.Fact {
	i, ok := r.list[key]
	if !ok {
		return nil
	}
	return r.arena[r.off[i]:r.off[i+1]]
}

// buildRelation reads the base pattern once and lays the relation out
// count → prefix sum → fill. keyed is false on a cross product: everything
// lands in the one bucket under "".
func buildRelation(ctx context.Context, src store.Querier, base store.Pattern, keyed bool) (relation, error) {
	// The stream and each fact's bucket number, at their final size at once:
	// the estimate is an upper bound on the matches.
	est := src.CountEstimate(base)
	facts := make([]*store.Fact, 0, est)
	num := make([]int32, 0, est)
	rel := relation{list: make(map[string]int32)}
	c := src.Select(base)
	for f := c.Next(); f != nil; f = c.Next() {
		k := ""
		if keyed {
			k = f.Value
		}
		i, ok := rel.list[k]
		if !ok {
			i = int32(len(rel.list))
			rel.list[k] = i
		}
		facts, num = append(facts, f), append(num, i)
		if len(facts)&1023 == 0 && ctx.Err() != nil {
			return relation{}, ctx.Err()
		}
	}
	// Bucket i is counted two places up, so that the prefix sum leaves its
	// start at off[i+1] and the fill, advancing that to its end, leaves its
	// start — the previous bucket's end — at off[i].
	off := make([]int32, len(rel.list)+2)
	for _, i := range num {
		off[i+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	rel.arena = make([]*store.Fact, len(facts))
	for j, i := range num {
		rel.arena[off[i+1]] = facts[j]
		off[i+1]++
	}
	rel.off = off[:len(off)-1]
	return rel, nil
}

// compile lowers the plan to executable steps and builds the hash
// relations. Variable slots are assigned in first-appearance order over
// the PLAN's step order (projection still reports the query's own
// variable order).
func compile(ctx context.Context, src store.Querier, q Query, plan *Plan) (*shared, error) {
	sh := &shared{
		ctx:   ctx,
		src:   src,
		steps: make([]execStep, len(plan.Steps)),
		limit: q.Limit,
	}

	slot := make(map[string]int)
	slotOf := func(v string) int {
		s, ok := slot[v]
		if !ok {
			s = len(slot)
			slot[v] = s
		}
		return s
	}
	bound := make(map[string]bool)
	for i, ps := range plan.Steps {
		st := &sh.steps[i]
		st.base = basePattern(ps.Clause)
		st.strategy = ps.Strategy
		st.subs = [3]int{-1, -1, -1}
		st.binds = [3]int{-1, -1, -1}
		st.checks = [3]int{-1, -1, -1}
		st.keySlot = -1
		inClause := make(map[string]bool)
		for pos, t := range []Term{ps.Clause.Entity, ps.Clause.Attr, ps.Clause.Value} {
			if !t.IsVar() {
				continue
			}
			s := slotOf(t.Var)
			switch {
			case bound[t.Var]:
				st.subs[pos] = s
			case inClause[t.Var]:
				st.checks[pos] = s
			default:
				st.binds[pos] = s
				inClause[t.Var] = true
			}
		}
		for _, t := range []Term{ps.Clause.Entity, ps.Clause.Attr, ps.Clause.Value} {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
		if st.strategy == StrategyHash {
			st.keySlot = st.subs[2]
			sh.buildProbes++
			var err error
			if st.rel, err = buildRelation(ctx, src, st.base, st.keySlot >= 0); err != nil {
				return nil, err
			}
			continue
		}
		// A probe on a variable that an earlier step bound from the entity
		// position of a cursor's fact reads in the run that step keeps.
		if s := st.subs[0]; s >= 0 {
			for j := range sh.steps[:i] {
				if from := &sh.steps[j]; from.binds[0] == s && from.strategy != StrategyHash {
					from.keepRun, st.inRun = true, true
				}
			}
		}
	}
	sh.nvars = len(slot)

	vars := q.Vars()
	sel := q.Select
	if len(sel) == 0 {
		sel = vars
	}
	sh.outVars = sel
	sh.selIdx = make([]int, len(sel))
	for i, v := range sel {
		sh.selIdx[i] = slot[v]
	}
	return sh, nil
}

// runner is the mutable side of one execution stream: the single
// reusable binding row, the DFS closures (hoisted once per runner, not
// per probe), and the output accumulator. The serial path uses one
// runner over the whole first-clause stream; each parallel worker has
// its own and is fed batches.
type runner struct {
	sh     *shared
	row    []string
	runs   []store.Run // beside row: the run of the entity in the slot, where a step keeps it
	yields []func(*store.Fact) bool
	rows   [][]string
	arena  []string // what is left of the chunk the kept rows are cut from
	total  int
	probes int64
	tick   uint // facts handed to a step, at any depth
	err    error
}

// pollEvery is how many facts reach a step — the last one's are the rows
// — between two polls of the context: the unit of work cancellation is
// bounded in, whatever the shape of the query.
const pollEvery = 1024

// The bounds of a chunk of kept rows, in rows; see room.
const (
	minChunk = 8
	maxChunk = 128
)

func newRunner(sh *shared) *runner {
	r := &runner{
		sh:     sh,
		row:    make([]string, sh.nvars),
		runs:   make([]store.Run, sh.nvars),
		yields: make([]func(*store.Fact) bool, len(sh.steps)),
	}
	last := len(sh.steps) - 1
	for d := range sh.steps {
		d := d
		st := &sh.steps[d]
		r.yields[d] = func(f *store.Fact) bool {
			// Every fact a step is handed is one unit of work, in a hash
			// bucket or a run as much as off a probe: polled here, a product
			// whose last step fans out is cancelled as promptly as a chain.
			if r.tick++; r.tick%pollEvery == 0 {
				if r.err = r.sh.ctx.Err(); r.err != nil {
					return false
				}
			}
			// Binds run before checks: a repeated variable's first
			// occurrence (the bind) is always at an earlier position than
			// its re-occurrence (the check), so the check must see THIS
			// fact's binding, not whatever the previous fact left in the
			// slot. A slot written before a failing check is harmless —
			// the next fact's bind overwrites it before any deeper read.
			if b := st.binds[0]; b >= 0 {
				r.row[b] = f.Entity
			}
			if b := st.binds[1]; b >= 0 {
				r.row[b] = f.Attr
			}
			if b := st.binds[2]; b >= 0 {
				r.row[b] = f.Value
			}
			if c := st.checks[0]; c >= 0 && r.row[c] != f.Entity {
				return true
			}
			if c := st.checks[1]; c >= 0 && r.row[c] != f.Attr {
				return true
			}
			if c := st.checks[2]; c >= 0 && r.row[c] != f.Value {
				return true
			}
			if d == last {
				return r.emit()
			}
			return r.advance(d + 1)
		}
	}
	return r
}

// stream feeds the cursor's facts, in its order and in place, into step d.
// It returns false when the step aborted.
func (r *runner) stream(c *store.Cursor, d int) bool {
	st := &r.sh.steps[d]
	for f := c.Next(); f != nil; f = c.Next() {
		if st.keepRun {
			r.runs[st.binds[0]] = c.Run()
		}
		if !r.yields[d](f) {
			return false
		}
		// The page is full: what the first clause has left is only counted,
		// and a count needs no merge order.
		if d == 0 && r.sh.limit > 0 && len(r.rows) >= r.sh.limit {
			c.Unordered()
		}
	}
	return true
}

// probe is one index read opened on the store: the first clause's scan,
// and the probe of a variable no cursor bound from an entity position.
func (r *runner) probe(p store.Pattern, d int) bool {
	r.probes++
	c := r.sh.src.Select(p)
	return r.stream(&c, d)
}

// advance evaluates step d under the current binding row: substitute
// the bound slots into the pattern and stream the matches — out of the
// entity's kept run when the join is on one, off the store otherwise — or
// fetch the pre-built hash bucket. Returns false only when a step aborted
// on context cancellation — matches are never cut short, so Total stays
// exact.
func (r *runner) advance(d int) bool {
	st := &r.sh.steps[d]
	if st.strategy == StrategyHash {
		k := ""
		if st.keySlot >= 0 {
			k = r.row[st.keySlot]
		}
		r.probes++
		for _, f := range st.rel.bucket(k) {
			if !r.yields[d](f) {
				return false
			}
		}
		return true
	}
	p := st.base
	if s := st.subs[1]; s >= 0 {
		p.Attr = r.row[s]
	}
	if s := st.subs[2]; s >= 0 {
		// Bound variables join on the accepted value verbatim;
		// hierarchical generalisation applies only to constants.
		p.Value, p.Exact = r.row[s], true
	}
	if st.inRun {
		r.probes++
		c := r.runs[st.subs[0]].Select(p)
		return r.stream(&c, d)
	}
	if s := st.subs[0]; s >= 0 {
		p.Entity = r.row[s]
	}
	return r.probe(p, d)
}

// emit records one complete binding: the total is always counted, the
// projected row is kept only while under the limit. Kept rows are cut from
// chunks, and the page grows by a chunk's rows at a time: a row costs the
// allocator nothing, a page a few allocations however many rows it has.
func (r *runner) emit() bool {
	r.total++
	if r.sh.limit > 0 && len(r.rows) >= r.sh.limit {
		return true
	}
	if len(r.rows) == cap(r.rows) {
		r.rows = append(make([][]string, 0, len(r.rows)+r.room()), r.rows...)
	}
	w := len(r.sh.selIdx)
	if r.arena == nil || len(r.arena) < w { // nil: a row of no columns is still cut from a chunk, not nil
		r.arena = make([]string, r.room()*w)
	}
	out := r.arena[:w:w]
	r.arena = r.arena[w:]
	for i, s := range r.sh.selIdx {
		out[i] = r.row[s]
	}
	r.rows = append(r.rows, out)
	return true
}

// room is how many rows the next chunk holds: as many as are kept already,
// no fewer than minChunk, no more than maxChunk or than the limit has left.
// A selective join keeps a handful of rows and must not pay for a page — a
// zeroed chunk of maxChunk rows costs such a query more than its probes.
func (r *runner) room() int {
	n := min(max(len(r.rows), minChunk), maxChunk)
	if left := r.sh.limit - len(r.rows); r.sh.limit > 0 && left < n {
		n = left
	}
	return n
}

// runParallel splits the first clause's stream into fixed-size batches,
// fans them out to workers, and reassembles the per-batch results in
// batch order. Because the batch decomposition depends only on the
// stream and each batch runs the same DFS the serial path would, the
// assembled rows are byte-identical to the serial result at any worker
// count.
func runParallel(sh *shared, workers int) (*Result, error) {
	type batch struct {
		seq   int
		facts []*store.Fact
		runs  []store.Run // each fact's entity run, when the first step keeps it
	}
	type batchResult struct {
		seq    int
		rows   [][]string
		total  int
		probes int64
		err    error
	}

	in := make(chan batch, workers)
	out := make(chan batchResult, workers)

	// A panic on one of the goroutines below — a store read is the one call
	// here that can — stops the others and is re-raised on the caller's,
	// where whoever recovers for this request (the server's route wrapper)
	// can see it.
	parent := sh.ctx
	var cancel context.CancelFunc
	sh.ctx, cancel = context.WithCancel(parent)
	defer cancel()
	var panicked atomic.Pointer[any]
	carry := func() {
		if rec := recover(); rec != nil {
			panicked.CompareAndSwap(nil, &rec)
			cancel()
		}
	}

	var nbatch int
	go func() {
		defer close(in)
		defer carry()
		seq := 0
		cur := sh.src.Select(sh.steps[0].base)
		buf := make([]*store.Fact, 0, batchSize)
		var runs []store.Run
		for {
			f := cur.Next()
			if f != nil {
				buf = append(buf, f)
				if sh.steps[0].keepRun {
					if runs == nil {
						runs = make([]store.Run, 0, batchSize)
					}
					runs = append(runs, cur.Run())
				}
			}
			if (f == nil || len(buf) == batchSize) && len(buf) > 0 {
				select {
				case in <- batch{seq: seq, facts: buf, runs: runs}:
					seq++
					buf, runs = make([]*store.Fact, 0, batchSize), nil
				case <-sh.ctx.Done():
					return
				}
			}
			if f == nil {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer carry()
			r := newRunner(sh)
			for b := range in {
				r.rows, r.total, r.probes, r.err = nil, 0, 0, nil
				for i, f := range b.facts {
					if b.runs != nil {
						r.runs[sh.steps[0].binds[0]] = b.runs[i]
					}
					if !r.yields[0](f) {
						break
					}
				}
				out <- batchResult{seq: b.seq, rows: r.rows, total: r.total, probes: r.probes, err: r.err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	bySeq := make(map[int]batchResult)
	for br := range out {
		bySeq[br.seq] = br
		if br.seq >= nbatch {
			nbatch = br.seq + 1
		}
	}
	if rec := panicked.Load(); rec != nil {
		panic(*rec)
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	res := &Result{Vars: sh.outVars, Probes: 1 + sh.buildProbes}
	for seq := 0; seq < nbatch; seq++ {
		br, ok := bySeq[seq]
		if !ok {
			// A batch vanished without a context error: impossible unless
			// cancellation raced the producer; report cancellation.
			return nil, context.Canceled
		}
		if br.err != nil {
			return nil, br.err
		}
		res.Total += br.total
		res.Probes += br.probes
		for _, row := range br.rows {
			if sh.limit > 0 && len(res.Rows) >= sh.limit {
				break
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Truncated = res.Total > len(res.Rows)
	return res, nil
}
