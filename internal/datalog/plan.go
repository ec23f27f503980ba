package datalog

import (
	"fmt"
	"strings"

	"akb/internal/store"
)

// Strategy is how one planned clause is evaluated.
type Strategy int

const (
	// StrategyScan streams the clause's pattern straight off the store
	// indexes — the plan's first clause, which seeds the binding stream.
	StrategyScan Strategy = iota
	// StrategyProbe runs an index-nested-loop join: per binding, the
	// bound variables are substituted into the pattern (entity or attr
	// position) and the entity's run, or the shortest postings list the
	// substituted pattern offers, is walked in place.
	StrategyProbe
	// StrategyHash builds the clause's base relation once, hashed on
	// the join key, and probes the table per binding. Chosen when the
	// only join positions are values (whose postings are
	// hierarchy-inflated supersets, so per-binding walks re-filter the
	// same lists) or when the clause shares no variable with the bound
	// prefix (the key degenerates to the empty tuple: a cross product
	// that still builds its side only once).
	StrategyHash
)

func (s Strategy) String() string {
	switch s {
	case StrategyScan:
		return "scan"
	case StrategyProbe:
		return "probe"
	case StrategyHash:
		return "hash"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Step is one planned clause.
type Step struct {
	// Clause is the pattern this step evaluates.
	Clause Clause
	// Strategy is the join strategy the executor will use.
	Strategy Strategy
	// Estimate is the postings-based upper bound on the clause's base
	// relation size at plan time — the number greedy ordering ranked
	// it by.
	Estimate int
	// Index is the clause's position in the original query.
	Index int
}

// Plan is an ordered clause sequence with per-clause join strategies.
type Plan struct {
	Steps []Step
}

// String renders the plan one step per line, for explain output.
func (p *Plan) String() string {
	var b strings.Builder
	for i, st := range p.Steps {
		fmt.Fprintf(&b, "%d. [%s, est %d] %s\n", i+1, st.Strategy, st.Estimate, st.Clause)
	}
	return b.String()
}

// basePattern is the clause's constant skeleton: every constant term
// becomes a Pattern field, variables stay wildcards. This is both the
// unit of selectivity estimation and the pattern the executor scans or
// builds hash relations from.
func basePattern(c Clause) store.Pattern {
	var p store.Pattern
	if !c.Entity.IsVar() {
		p.Entity = c.Entity.Const
	}
	if !c.Attr.IsVar() {
		p.Attr = c.Attr.Const
	}
	if !c.Value.IsVar() {
		p.Value = c.Value.Const
	}
	p.Class = c.Class
	return p
}

// estimate returns the clause's selectivity upper bound: the store's
// postings-based CountEstimate of its constant skeleton.
func estimate(src store.Querier, c Clause) int {
	return src.CountEstimate(basePattern(c))
}

// PlanQuery orders the query's clauses greedily by selectivity: start
// with the cheapest clause, then repeatedly take the cheapest clause
// connected to the variables bound so far, falling back to the cheapest
// disconnected clause (a cross product) only when nothing is connected.
// Estimates come from the store's own postings lists — no statistics
// catalog. Measured against every clause order of 300 seeded 2–4-clause
// queries (a seed-7 scale-4 KB, 8 shards; star joins and value chains),
// greedy ordering took the fewest probes on 253 of them, and its mean
// probe regret — its probes over the best order's — was 1.09, against 2.44
// for a stats-free order (most constants, connected first) and 5.09 for
// query order.
//
// Ties break on the clause's position in the query, so plans are
// deterministic for a given store.
func PlanQuery(q Query, src store.Querier) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	type cand struct {
		clause Clause
		index  int
		est    int
	}
	remaining := make([]cand, len(q.Clauses))
	for i, c := range q.Clauses {
		remaining[i] = cand{clause: c, index: i, est: estimate(src, c)}
	}
	bound := make(map[string]bool)
	plan := &Plan{Steps: make([]Step, 0, len(q.Clauses))}
	for len(remaining) > 0 {
		best, bestConnected := -1, false
		for i, c := range remaining {
			conn := len(bound) > 0 && connected(c.clause, bound)
			switch {
			case best < 0,
				conn && !bestConnected,
				conn == bestConnected && c.est < remaining[best].est:
				best, bestConnected = i, conn
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		plan.Steps = append(plan.Steps, Step{
			Clause:   chosen.clause,
			Strategy: strategyFor(chosen.clause, bound, len(plan.Steps) == 0),
			Estimate: chosen.est,
			Index:    chosen.index,
		})
		bindVars(chosen.clause, bound)
	}
	return plan, nil
}

// NaivePlan keeps the clauses in query order — the left-to-right
// baseline the greedy planner is benchmarked against. Strategies are
// still assigned per connectivity, so the comparison isolates ordering.
func NaivePlan(q Query, src store.Querier) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Steps: make([]Step, 0, len(q.Clauses))}
	bound := make(map[string]bool)
	for i, c := range q.Clauses {
		plan.Steps = append(plan.Steps, Step{
			Clause:   c,
			Strategy: strategyFor(c, bound, i == 0),
			Estimate: estimate(src, c),
			Index:    i,
		})
		bindVars(c, bound)
	}
	return plan, nil
}

// connected reports whether the clause shares a variable with the bound
// set.
func connected(c Clause, bound map[string]bool) bool {
	return (c.Entity.IsVar() && bound[c.Entity.Var]) ||
		(c.Attr.IsVar() && bound[c.Attr.Var]) ||
		(c.Value.IsVar() && bound[c.Value.Var])
}

// bindVars adds the clause's variables to the bound set.
func bindVars(c Clause, bound map[string]bool) {
	for _, t := range []Term{c.Entity, c.Attr, c.Value} {
		if t.IsVar() {
			bound[t.Var] = true
		}
	}
}

// strategyFor picks the join strategy for a clause given the variables
// bound before it runs. Entity- or attr-position joins probe (those
// postings are exact and tiny); value-only joins and disconnected
// clauses hash (the value postings include hierarchy specialisations,
// so building the exact-keyed relation once beats re-filtering the
// superset per binding — and a disconnected clause would otherwise be
// re-scanned per binding). Both strategies emit in identical
// nested-loop order, so the choice never changes results.
func strategyFor(c Clause, bound map[string]bool, first bool) Strategy {
	if first {
		return StrategyScan
	}
	entBound := c.Entity.IsVar() && bound[c.Entity.Var]
	attrBound := c.Attr.IsVar() && bound[c.Attr.Var]
	valBound := c.Value.IsVar() && bound[c.Value.Var]
	switch {
	case entBound || attrBound:
		return StrategyProbe
	case valBound:
		return StrategyHash
	case !c.Entity.IsVar() && !c.Attr.IsVar() && !c.Value.IsVar():
		// Fully ground clause: a constant existence filter, probed once
		// per binding off the exact indexes.
		return StrategyProbe
	default:
		return StrategyHash
	}
}
