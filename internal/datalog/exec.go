package datalog

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
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

// ErrTotalOverflow is the error of a query whose total number of matches
// does not fit in an int. Counting reaches totals that enumeration never
// would before a deadline — a product of independent clauses is counted at
// once — and such a total is refused, never wrapped.
var ErrTotalOverflow = errors.New("datalog: the number of matches does not fit in an int")

// RunPlan executes a pre-built plan. The plan must come from PlanQuery
// or NaivePlan over the same query. Every cursor src hands out must read
// one store, as a wrapper's do: the executor joins on the string IDs the
// cursors report, in the table (store.Names) of the first clause's.
func RunPlan(ctx context.Context, src store.Querier, q Query, plan *Plan, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sh, err := compile(ctx, src, q, plan)
	if err != nil {
		return nil, err
	}
	defer sh.release()
	if opts.Parallelism > 1 {
		return runParallel(sh, opts.Parallelism)
	}
	r := newRunner(sh)
	c := sh.scan()
	r.probes++
	r.stream(&c, 0) // the first clause's full stream drives the rest
	if r.err != nil {
		return nil, r.err
	}
	return &Result{
		Vars:      sh.outVars,
		IDs:       r.page,
		Count:     r.kept,
		Names:     sh.names,
		Total:     r.total,
		Truncated: r.total > r.kept,
		Probes:    r.probes + sh.buildProbes,
	}, nil
}

// shared is the per-execution read-only state: the compiled steps
// (including any hash relations, built once), the store, its string table
// and the projection. Parallel workers share one instance.
type shared struct {
	ctx     context.Context
	src     store.Querier
	names   store.Names // the store's, taken from the first clause's cursor
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
// there — substitute a bound slot into the read (subs), bind the match's
// ID into a slot (binds), or check the match's ID against a slot bound
// earlier in the same clause (checks). Slots are indices into the runner's
// binding row of string IDs; -1 means inactive.
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
	// kept run, by number, instead of opening a read on the store.
	inRun bool
	// attr, class and value are an inRun step's constants as IDs (NoID where
	// the clause has none), found once a query; none: the store's table lacks
	// one of them, so the step matches nothing.
	attr, class, value uint32
	none               bool
	// counted: no step from this one to the last substitutes or checks a
	// variable bound by one of them, so once the page is full their matches
	// are a product of counts, not a loop.
	counted bool
	// product: the step streams a cursor, checks nothing, and every later
	// step is counted and reads inside the run of the entity it binds, by
	// constants alone — so once the page is full what the cursor has left is
	// counted by one store.Cursor.CountProducts.
	product bool
	// keySlot is the binding slot whose value keys the hash relation;
	// -1 on a cross-product hash step (one bucket).
	keySlot int
	// rel is the hash relation of a StrategyHash step.
	rel *relation
}

// match is one fact of a hash relation by number: its entity, attribute and
// value IDs.
type match struct{ entity, attr, value uint32 }

// relation is a hash step's build side: the clause's base relation grouped
// by value ID, in canonical order within each bucket so probing emits
// nested-loop order. Like the store's postings it is one open-addressed
// table of bucket numbers, one key and one offset slice and one arena
// however many keys it holds, each made once at its final size; a cross
// product is the arena alone, one bucket. Its slices outlive the execution:
// RunPlan hands the relation back to relations, and the next build reuses
// what has room.
type relation struct {
	slot  []int32  // bucket number + 1 by value ID, 0 an empty slot; empty on a cross product
	key   []uint32 // bucket i's value ID
	off   []int32  // bucket i is arena[off[i]:off[i+1]]
	next  []int32  // while the buckets are laid out, bucket i's next place
	arena []match
}

// relations is the free list of hash relations whose execution has ended.
var relations = sync.Pool{New: func() any { return new(relation) }}

// maxReusedRelation bounds the matches of a relation kept for reuse: one
// build side far larger than the rest must not pin its slices.
const maxReusedRelation = 1 << 16

// release hands the execution's hash relations back to relations: nothing
// reads them once RunPlan returns, the parallel path's goroutines included.
func (sh *shared) release() {
	for i := range sh.steps {
		if rel := sh.steps[i].rel; rel != nil && cap(rel.arena) <= maxReusedRelation {
			relations.Put(rel)
		}
	}
}

// sized returns n zero elements: s's own array when it has room for them.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// find returns the slot of the key, or the empty slot where it would go. The
// keys are spread over the slots by Fibonacci hashing.
func (r *relation) find(key uint32) int {
	mask := len(r.slot) - 1
	for h := int(uint64(key)*0x9E3779B97F4A7C15>>32) & mask; ; h = (h + 1) & mask {
		if no := r.slot[h]; no == 0 || r.key[no-1] == key {
			return h
		}
	}
}

func (r *relation) bucket(key uint32) []match {
	if len(r.slot) == 0 {
		return r.arena
	}
	no := r.slot[r.find(key)]
	if no == 0 {
		return nil
	}
	return r.arena[r.off[no-1]:r.off[no]]
}

// buildRelation reads the base pattern once and lays the relation out in
// the slice it was read into; keyed is false on a cross product, whose one
// bucket is the read in canonical order. Keyed, only each bucket's order is
// owed, so the read comes shard by shard (store.Cursor.Unordered): count →
// prefix sum → each match swapped into its bucket in place → each bucket
// sorted by entity and attribute, which is canonical order inside a value,
// as string IDs follow the strings' order. The table is sized once the
// stream is read: a power of two at least twice the matches, so at most half
// full, and never grown.
func buildRelation(ctx context.Context, src store.Querier, base store.Pattern, keyed bool) (*relation, error) {
	rel := relations.Get().(*relation)
	// The stream at its final size at once: the estimate is an upper bound
	// on the matches.
	facts := rel.arena[:0]
	if n := src.CountEstimate(base); cap(facts) < n {
		facts = make([]match, 0, n)
	}
	c := src.Select(base)
	if keyed {
		c.Unordered()
	}
	for c.Next() {
		e, a, v := c.IDs()
		facts = append(facts, match{e, a, v})
		if len(facts)&1023 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	rel.arena, rel.slot = facts, rel.slot[:0]
	if !keyed {
		return rel, nil
	}
	size := 8
	for size < 2*len(facts) {
		size <<= 1
	}
	rel.slot = sized(rel.slot, size)
	rel.key = sized(rel.key, len(facts))[:0]
	// Buckets are numbered as their values first occur; bucket i is counted
	// at off[i+1], so that the prefix sum leaves its start at off[i]. Until
	// the buckets are laid out, a match carries its bucket's number in place
	// of its value, which key keeps.
	off := sized(rel.off, len(facts)+1)[:1]
	for j := range facts {
		m := &facts[j]
		h := rel.find(m.value)
		if rel.slot[h] == 0 {
			rel.key = append(rel.key, m.value)
			off = append(off, 0)
			rel.slot[h] = int32(len(rel.key))
		}
		m.value = uint32(rel.slot[h] - 1)
		off[m.value+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// Each bucket in turn is filled up to its end: a match found at its
	// bucket's next place stays, any other is swapped into its own bucket's
	// next place, never to move again. Then each bucket gets its value back
	// and is sorted.
	next := append(rel.next[:0], off[:len(off)-1]...)
	rel.next = next
	for i := range next {
		for next[i] < off[i+1] {
			m := facts[next[i]]
			facts[next[i]], facts[next[m.value]] = facts[next[m.value]], m
			next[m.value]++
		}
	}
	for i, v := range rel.key {
		b := facts[off[i]:off[i+1]]
		for j := range b {
			b[j].value = v
		}
		if len(b) > 1 {
			slices.SortFunc(b, func(x, y match) int {
				return cmp.Or(cmp.Compare(x.entity, y.entity), cmp.Compare(x.attr, y.attr))
			})
		}
	}
	rel.off = off
	return rel, nil
}

// compile lowers the plan to executable steps and builds the hash
// relations. Variable slots are assigned in first-appearance order over
// the PLAN's step order (projection still reports the query's own
// variable order). A query has at most 3*MaxClauses variables, so a slot is
// found by a scan of the names seen so far, not through a map.
func compile(ctx context.Context, src store.Querier, q Query, plan *Plan) (*shared, error) {
	sh := &shared{
		ctx:   ctx,
		src:   src,
		steps: make([]execStep, len(plan.Steps)),
		limit: q.Limit,
	}

	// vars[s] is the variable of slot s, boundAt[s] the step that binds it:
	// a variable bound at an earlier step is substituted, one bound earlier
	// in the same clause is checked.
	var varBuf [3 * MaxClauses]string
	var boundBuf [3 * MaxClauses]int
	vars, boundAt := varBuf[:0], boundBuf[:0]
	for i, ps := range plan.Steps {
		st := &sh.steps[i]
		st.base = basePattern(ps.Clause)
		st.strategy = ps.Strategy
		st.subs = [3]int{-1, -1, -1}
		st.binds = [3]int{-1, -1, -1}
		st.checks = [3]int{-1, -1, -1}
		st.keySlot = -1
		for pos, t := range [...]Term{ps.Clause.Entity, ps.Clause.Attr, ps.Clause.Value} {
			if !t.IsVar() {
				continue
			}
			switch s := slices.Index(vars, t.Var); {
			case s < 0:
				st.binds[pos] = len(vars)
				vars, boundAt = append(vars, t.Var), append(boundAt, i)
			case boundAt[s] < i:
				st.subs[pos] = s
			default:
				st.checks[pos] = s
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
	sh.nvars = len(vars)
	for d := range sh.steps {
		sh.steps[d].counted = independent(sh.steps[d:], d, boundAt)
	}
	for d := range sh.steps {
		sh.steps[d].product = sh.productTail(d)
	}

	sel := q.Select
	if len(sel) == 0 {
		sel = q.Vars()
	}
	sh.outVars = sel
	sh.selIdx = make([]int, len(sel))
	for i, v := range sel {
		sh.selIdx[i] = slices.Index(vars, v)
	}
	return sh, nil
}

// independent reports whether the suffix of steps that starts at step d reads
// no variable bound inside it: every substituted slot was bound before d, and
// no step checks one (a check is of a slot its own step binds).
func independent(suffix []execStep, d int, boundAt []int) bool {
	for i := range suffix {
		st := &suffix[i]
		for pos := range st.subs {
			if st.checks[pos] >= 0 || st.subs[pos] >= 0 && boundAt[st.subs[pos]] >= d {
				return false
			}
		}
	}
	return true
}

// scan opens the first clause's read, the execution's first, and takes the
// store's string table from it: the in-run probes' constants are found there
// once, for every binding and every worker.
func (sh *shared) scan() store.Cursor {
	c := sh.src.Select(sh.steps[0].base)
	sh.names = c.Names()
	for i := range sh.steps {
		st := &sh.steps[i]
		if !st.inRun {
			continue
		}
		for _, k := range [...]struct {
			name string
			id   *uint32
		}{{st.base.Attr, &st.attr}, {st.base.Class, &st.class}, {st.base.Value, &st.value}} {
			*k.id = store.NoID
			if k.name != "" {
				var ok bool
				*k.id, ok = sh.names.ID(k.name)
				st.none = st.none || !ok
			}
		}
	}
	return c
}

// productTail reports whether the steps after d are a counted star on the
// entity step d binds: each reads inside its run by its constants alone,
// substituting nothing else. Step d itself must check nothing, for every
// match its cursor has left to count. A step whose constant the store's
// table lacks (none) needs no exception: it matches nothing, so no page
// fills ahead of it.
func (sh *shared) productTail(d int) bool {
	st := &sh.steps[d]
	if d+1 == len(sh.steps) || !sh.steps[d+1].counted || st.checks != [3]int{-1, -1, -1} {
		return false
	}
	for i := range sh.steps[d+1:] {
		if later := &sh.steps[d+1+i]; !later.inRun || later.subs != [3]int{st.binds[0], -1, -1} {
			return false
		}
	}
	return true
}

// runner is the mutable side of one execution stream: the single reusable
// binding row of string IDs and the output accumulator, the page. The page
// is the kept rows' projected IDs, one after another, len(selIdx) to a row,
// with their number beside them: a query of constants only has rows of no
// columns. The serial path uses one runner over the whole first-clause
// stream; each parallel worker has its own and is fed batches.
type runner struct {
	sh     *shared
	row    []uint32
	runs   []store.Run // beside row: the run of the entity in the slot, where a step keeps it
	page   []uint32
	kept   int // rows in page
	total  int
	probes int64
	tick   uint // matches handed to a step, at any depth
	err    error
}

// pollEvery is how many matches reach a step — the last one's are the rows
// — between two polls of the context: the unit of work cancellation is
// bounded in, whatever the shape of the query. A counted suffix hands no
// match to its steps, and is a handful of reads a binding; a star's tail
// counted by store.Cursor.CountProducts is polled there, at the same unit.
const pollEvery = 1024

// minRows is the rows a page is first made with, unless the limit is fewer;
// see grow.
const minRows = 8

func newRunner(sh *shared) *runner {
	return &runner{
		sh:   sh,
		row:  make([]uint32, sh.nvars),
		runs: make([]store.Run, sh.nvars),
	}
}

// full reports whether the page has its rows: what is left is only counted.
func (r *runner) full() bool { return r.sh.limit > 0 && r.kept >= r.sh.limit }

// visit hands one match of step d — its entity, attribute and value IDs —
// to the step: bind, check, and go on to the next step or emit.
func (r *runner) visit(d int, entity, attr, value uint32) bool {
	// Every match a step is handed is one unit of work, in a hash bucket or
	// a run as much as off a probe: polled here, a product whose last step
	// fans out is cancelled as promptly as a chain.
	if r.tick++; r.tick%pollEvery == 0 {
		if r.err = r.sh.ctx.Err(); r.err != nil {
			return false
		}
	}
	st := &r.sh.steps[d]
	// Binds run before checks: a repeated variable's first occurrence (the
	// bind) is always at an earlier position than its re-occurrence (the
	// check), so the check must see THIS match's binding, not whatever the
	// previous one left in the slot. A slot written before a failing check is
	// harmless — the next match's bind overwrites it before any deeper read.
	if b := st.binds[0]; b >= 0 {
		r.row[b] = entity
	}
	if b := st.binds[1]; b >= 0 {
		r.row[b] = attr
	}
	if b := st.binds[2]; b >= 0 {
		r.row[b] = value
	}
	if c := st.checks[0]; c >= 0 && r.row[c] != entity {
		return true
	}
	if c := st.checks[1]; c >= 0 && r.row[c] != attr {
		return true
	}
	if c := st.checks[2]; c >= 0 && r.row[c] != value {
		return true
	}
	if d == len(r.sh.steps)-1 {
		return r.emit()
	}
	return r.advance(d + 1)
}

// stream feeds the cursor's matches, in its order, into step d. It returns
// false when the step aborted.
func (r *runner) stream(c *store.Cursor, d int) bool {
	st := &r.sh.steps[d]
	for c.Next() {
		if st.keepRun {
			r.runs[st.binds[0]] = c.Run()
		}
		entity, attr, value := c.IDs()
		if !r.visit(d, entity, attr, value) {
			return false
		}
		if r.full() {
			switch {
			case st.counted:
				return r.count(d+1, c.Count())
			case st.product:
				return r.countProducts(c, d)
			case d == 0:
				// What the first clause has left is only counted, and a
				// count needs no merge order.
				c.Unordered()
			}
		}
	}
	return true
}

// advance evaluates step d under the current binding row: read the matches
// — out of the entity's kept run by number when the join is on one, out of
// the pre-built hash bucket, or off the store with the bound names
// substituted — and hand them on; once the page is full and the rest of the
// plan is independent of what it binds, count them instead. Returns false
// only when a step aborted — on cancellation or an overflowing total —
// matches are never cut short, so Total stays exact.
func (r *runner) advance(d int) bool {
	st := &r.sh.steps[d]
	if st.counted && r.full() {
		return r.count(d, 1)
	}
	r.probes++
	switch {
	case st.strategy == StrategyHash:
		b := st.rel.bucket(r.key(st))
		for i, m := range b {
			if !r.visit(d, m.entity, m.attr, m.value) {
				return false
			}
			if st.counted && r.full() {
				return r.count(d+1, len(b)-i-1)
			}
		}
		return true
	case st.inRun:
		c := r.where(st)
		entity := r.row[st.subs[0]]
		for c.Next() {
			attr, value := c.IDs()
			if !r.visit(d, entity, attr, value) {
				return false
			}
			if st.counted && r.full() {
				return r.count(d+1, c.Count())
			}
		}
		return true
	default:
		c := r.sh.src.Select(r.pattern(st))
		return r.stream(&c, d)
	}
}

// count adds n times the product of the matches of steps from on, under the
// current bindings, to the total: the counted suffix. Each step's count is
// one read — a run narrowed, a bucket's length, a read opened on the store
// and counted where it lies — and is skipped once the product is zero.
func (r *runner) count(from, n int) bool {
	for d := from; d < len(r.sh.steps) && n > 0; d++ {
		r.probes++
		hi, lo := bits.Mul64(uint64(n), uint64(r.size(d)))
		if hi != 0 || lo > math.MaxInt {
			r.err = ErrTotalOverflow
			return false
		}
		n = int(lo)
	}
	if n > math.MaxInt-r.total {
		r.err = ErrTotalOverflow
		return false
	}
	r.total += n
	return true
}

// countProducts adds what the cursor of step d has left to the total, each
// match counted as count(d+1, 1) would count it — the product of the later
// steps' reads inside its run — by one merge of the store's sorted lists
// (store.Cursor.CountProducts), charged the probes count would charge.
func (r *runner) countProducts(c *store.Cursor, d int) bool {
	var buf [MaxClauses]store.RunRead
	reads := buf[:0]
	for i := d + 1; i < len(r.sh.steps); i++ {
		st := &r.sh.steps[i]
		reads = append(reads, store.RunRead{Attr: st.attr, Class: st.class, Value: st.value})
	}
	p, err := c.CountProducts(r.sh.ctx, reads)
	r.probes += p.Reads
	switch {
	case errors.Is(err, store.ErrCountOverflow):
		r.err = ErrTotalOverflow
	case err != nil:
		r.err = err
	case p.Total > math.MaxInt-r.total:
		r.err = ErrTotalOverflow
	default:
		r.total += p.Total
		return true
	}
	return false
}

// size is the number of matches of step d under the current bindings.
func (r *runner) size(d int) int {
	st := &r.sh.steps[d]
	switch {
	case st.strategy == StrategyHash:
		return len(st.rel.bucket(r.key(st)))
	case st.inRun:
		c := r.where(st)
		return c.Count()
	default:
		c := r.sh.src.Select(r.pattern(st))
		return c.Count()
	}
}

// key is the value ID a hash step's bucket is found by; a cross product has
// one bucket, whatever the key.
func (r *runner) key(st *execStep) uint32 {
	if st.keySlot >= 0 {
		return r.row[st.keySlot]
	}
	return 0
}

// where opens an inRun step's read of the kept run: its constants' IDs, and
// the bound attribute and value substituted — a bound value matches
// verbatim; hierarchical generalisation applies only to constants.
func (r *runner) where(st *execStep) store.RunCursor {
	if st.none {
		return store.RunCursor{}
	}
	attr, value, exact := st.attr, st.value, false
	if s := st.subs[1]; s >= 0 {
		attr = r.row[s]
	}
	if s := st.subs[2]; s >= 0 {
		value, exact = r.row[s], true
	}
	return r.runs[st.subs[0]].Where(attr, st.class, value, exact)
}

// pattern is a probe's read off the store: its skeleton with the bound
// names substituted.
func (r *runner) pattern(st *execStep) store.Pattern {
	p := st.base
	if s := st.subs[0]; s >= 0 {
		p.Entity = r.sh.names.Name(r.row[s])
	}
	if s := st.subs[1]; s >= 0 {
		p.Attr = r.sh.names.Name(r.row[s])
	}
	if s := st.subs[2]; s >= 0 {
		p.Value, p.Exact = r.sh.names.Name(r.row[s]), true
	}
	return p
}

// emit records one complete binding: the total is always counted, and the
// projected IDs are kept only while under the limit. No string is made: the
// page is spelled where it leaves the executor (Result.Rows, or an encoder
// through Result.Names).
func (r *runner) emit() bool {
	if r.total == math.MaxInt {
		r.err = ErrTotalOverflow
		return false
	}
	r.total++
	if r.full() {
		return true
	}
	if len(r.page)+len(r.sh.selIdx) > cap(r.page) {
		r.grow()
	}
	for _, s := range r.sh.selIdx {
		r.page = append(r.page, r.row[s])
	}
	r.kept++
	return true
}

// grow doubles the page's room, from minRows rows, and never past the limit:
// a selective join keeps a handful of rows and must not pay for a page, and a
// page of n rows costs about log2(n/minRows) allocations.
func (r *runner) grow() {
	n := max(2*r.kept, minRows)
	if r.sh.limit > 0 {
		n = min(n, r.sh.limit)
	}
	page := make([]uint32, len(r.page), n*len(r.sh.selIdx))
	copy(page, r.page)
	r.page = page
}

// runParallel splits the first clause's stream into fixed-size batches,
// fans them out to workers, and reassembles the per-batch results in
// batch order. Because the batch decomposition depends only on the
// stream and each batch runs the same runner the serial path does, the
// assembled rows are byte-identical to the serial result at any worker
// count. A worker counts what its own batch has past a page: rows past a
// batch's limit-th are never kept, whatever the batches before it hold.
func runParallel(sh *shared, workers int) (*Result, error) {
	type batch struct {
		seq     int
		matches []match
		runs    []store.Run // each match's entity run, when the first step keeps it
	}
	type batchResult struct {
		seq    int
		page   []uint32
		count  int
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

	// Opened here, before any worker reads the string table it brings.
	cur := sh.scan()
	first := &sh.steps[0]
	var nbatch int
	var rest int // the first clause's matches counted instead of batched
	go func() {
		defer close(in)
		defer carry()
		seq := 0
		buf := make([]match, 0, batchSize)
		var runs []store.Run
		for {
			// When no step reads what another binds, every match of the first
			// clause has as many rows as the next: once limit of them are in
			// batches the page is full — or no match has a row — and the rest
			// of the stream is only counted, as the serial path counts it.
			if len(buf) == 0 && first.counted && sh.limit > 0 && seq*batchSize >= sh.limit {
				rest = cur.Count()
				return
			}
			more := cur.Next()
			if more {
				e, a, v := cur.IDs()
				buf = append(buf, match{e, a, v})
				if first.keepRun {
					if runs == nil {
						runs = make([]store.Run, 0, batchSize)
					}
					runs = append(runs, cur.Run())
				}
			}
			if (!more || len(buf) == batchSize) && len(buf) > 0 {
				select {
				case in <- batch{seq: seq, matches: buf, runs: runs}:
					seq++
					buf, runs = make([]match, 0, batchSize), nil
				case <-sh.ctx.Done():
					return
				}
			}
			if !more {
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
				r.page, r.kept, r.total, r.probes, r.err = nil, 0, 0, 0, nil
				for i, m := range b.matches {
					if b.runs != nil {
						r.runs[first.binds[0]] = b.runs[i]
					}
					if !r.visit(0, m.entity, m.attr, m.value) {
						break
					}
					if first.counted && r.full() {
						r.count(1, len(b.matches)-i-1)
						break
					}
				}
				out <- batchResult{seq: b.seq, page: r.page, count: r.kept, total: r.total, probes: r.probes, err: r.err}
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
	res := &Result{Vars: sh.outVars, Names: sh.names, Probes: 1 + sh.buildProbes}
	w := len(sh.selIdx)
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
		if br.total > math.MaxInt-res.Total {
			return nil, ErrTotalOverflow
		}
		res.Total += br.total
		res.Probes += br.probes
		take := br.count
		if sh.limit > 0 {
			take = min(take, sh.limit-res.Count)
		}
		res.IDs = append(res.IDs, br.page[:take*w]...)
		res.Count += take
	}
	if rest > 0 {
		r := newRunner(sh)
		r.total = res.Total
		if !r.count(1, rest) {
			return nil, r.err
		}
		res.Total, res.Probes = r.total, res.Probes+r.probes
	}
	res.Truncated = res.Total > res.Count
	return res, nil
}
