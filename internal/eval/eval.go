// Package eval scores extraction and fusion output against the synthetic
// world's ground truth and renders the experiment tables. Scoring is
// hierarchy-aware: a claimed generalisation of a true value (China for a
// Wuhan birth place) counts as true, matching the paper's multiple-truth
// semantics for hierarchical value spaces.
package eval

import (
	"fmt"
	"slices"
	"strings"

	"akb/internal/extract"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// Metrics is a precision/recall summary.
type Metrics struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Add accumulates another metrics value.
func (m *Metrics) Add(o Metrics) {
	m.TP += o.TP
	m.FP += o.FP
	m.FN += o.FN
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision(), m.Recall(), m.F1(), m.TP, m.FP, m.FN)
}

// Scorer scores against a world's ground truth. It recovers each entity
// and attribute name once for all its calls — a run scores the same few
// thousand names stage after stage — so it must not be used by two
// goroutines at once.
type Scorer struct {
	World *kb.World
	names extract.Names
}

// nameMap returns the names the scorer has recovered so far.
func (sc *Scorer) nameMap() extract.Names {
	if sc.names == nil {
		sc.names = extract.Names{}
	}
	return sc.names
}

// ScoreStatements computes extraction precision over statements: a
// statement is correct when its value is true (or a generalisation of a
// true value) for its entity and attribute. Recall is not defined at this
// level (FN stays 0): the extraction target set is open.
func (sc *Scorer) ScoreStatements(stmts []rdf.Statement) Metrics {
	var m Metrics
	names := sc.nameMap()
	var subject rdf.Term
	var e *kb.Entity
	for i := range stmts {
		s := &stmts[i] // a Statement is 128 bytes
		// Extractors emit an entity's statements together: most statements
		// have the subject of the one before.
		if i == 0 || s.Subject != subject {
			subject = s.Subject
			e, _ = sc.World.Entity(names.Of(subject))
		}
		if e == nil {
			m.FP++
			continue
		}
		if sc.World.IsTrue(e, names.Of(s.Predicate), s.Object.Value) {
			m.TP++
		} else {
			m.FP++
		}
	}
	return m
}

// ScoreFusion scores a fusion result: accepted values are checked against
// ground truth (TP/FP), and each item's true leaf values not covered by any
// accepted value count as FN. Items about unknown entities or attributes
// the entity lacks score all accepted values as FP. The decisions are
// walked in their own order — item-key order, where the items of one
// subject are neighbours and its entity is looked up once.
func (sc *Scorer) ScoreFusion(res *fusion.Result) Metrics {
	var m Metrics
	names := sc.nameMap()
	var subject rdf.Term
	var e *kb.Entity
	var covered []bool
	for i := range res.Decisions {
		d := &res.Decisions[i]
		if i == 0 || d.Item.Subject != subject {
			subject = d.Item.Subject
			e, _ = sc.World.Entity(names.Of(subject))
		}
		if e == nil {
			m.FP += len(d.Truths)
			continue
		}
		attr := names.Of(d.Item.Predicate)
		trueLeaves := e.TrueValues(attr)
		covered = slices.Grow(covered[:0], len(trueLeaves))[:len(trueLeaves)]
		clear(covered)
		for _, t := range d.Truths {
			// World.IsTrue over the leaves already looked up: a value is
			// true when it is a leaf or a generalisation of one.
			v, hit := t.Value, false
			for i, leaf := range trueLeaves {
				if leaf == v || sc.World.Hier.IsAncestor(v, leaf) {
					covered[i], hit = true, true
				}
			}
			if hit {
				m.TP++
			} else {
				m.FP++
			}
		}
		for _, c := range covered {
			if !c {
				m.FN++
			}
		}
	}
	return m
}

// MethodScore pairs a fusion method with its metrics.
type MethodScore struct {
	Method  string
	Metrics Metrics
}

// CompareFusionMethods runs every method over the same claims and scores
// each, in input order.
func (sc *Scorer) CompareFusionMethods(stmts []rdf.Statement, methods []fusion.Method, g fusion.Granularity) []MethodScore {
	claims := fusion.BuildClaims(stmts, g)
	out := make([]MethodScore, 0, len(methods))
	for _, m := range methods {
		res := m.Fuse(claims)
		out = append(out, MethodScore{Method: res.Method, Metrics: sc.ScoreFusion(res)})
	}
	return out
}

// FormatTable renders an ASCII table with aligned columns, used by cmd/akb
// to print the paper's tables.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", w, cell)
		}
		b.WriteByte('\n')
	}
	sep := func() {
		b.WriteString("+")
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w+2))
			b.WriteString("+")
		}
		b.WriteByte('\n')
	}
	sep()
	writeRow(headers)
	sep()
	for _, row := range rows {
		writeRow(row)
	}
	sep()
	return b.String()
}

// NA renders -1 counts as the paper's "N/A".
func NA(n int) string {
	if n < 0 {
		return "N/A"
	}
	return fmt.Sprintf("%d", n)
}
