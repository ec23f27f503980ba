package eval

import (
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/rdf"
)

func TestMetricsMath(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, FN: 2}
	if p := m.Precision(); p != 0.8 {
		t.Errorf("P = %g", p)
	}
	if r := m.Recall(); r != 0.8 {
		t.Errorf("R = %g", r)
	}
	if f := m.F1(); f < 0.799999 || f > 0.800001 {
		t.Errorf("F1 = %g", f)
	}
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
	m2 := Metrics{TP: 1, FP: 1, FN: 1}
	m2.Add(m)
	if m2.TP != 9 || m2.FP != 3 || m2.FN != 3 {
		t.Errorf("Add = %+v", m2)
	}
	if !strings.Contains(m.String(), "P=0.800") {
		t.Errorf("String = %q", m.String())
	}
}

func testWorldAndEntity(t *testing.T) (*kb.World, *kb.Entity, string, string) {
	t.Helper()
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 5, AttrsPerEntity: 10})
	e := w.EntitiesOf("Film")[0]
	for _, row := range e.Values {
		attr, vals := row.Attr, row.Values
		if len(vals) > 0 {
			return w, e, attr, vals[0]
		}
	}
	t.Fatal("entity has no values")
	return nil, nil, "", ""
}

func TestScoreStatements(t *testing.T) {
	w, e, attr, val := testWorldAndEntity(t)
	sc := &Scorer{World: w}
	stmts := []rdf.Statement{
		extract.NewStatement(e.Name, attr, val, "src", "x", "", 0.9),                // correct
		extract.NewStatement(e.Name, attr, "definitely wrong", "src", "x", "", 0.9), // wrong
		extract.NewStatement("Ghost Entity", attr, val, "src", "x", "", 0.9),        // unknown entity
	}
	m := sc.ScoreStatements(stmts)
	if m.TP != 1 || m.FP != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestScoreStatementsHierarchyAware(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 20, AttrsPerEntity: 14})
	sc := &Scorer{World: w}
	// Find a hierarchical attribute value and claim its ancestor.
	for _, e := range w.EntitiesOf("Film") {
		for _, row := range e.Values {
			attr, vals := row.Attr, row.Values
			a, _ := w.Ontology.Class("Film").Attribute(attr)
			if !a.Hierarchical || len(vals) == 0 {
				continue
			}
			ancs := w.Hier.Ancestors(vals[0])
			if len(ancs) == 0 {
				continue
			}
			m := sc.ScoreStatements([]rdf.Statement{
				extract.NewStatement(e.Name, attr, ancs[len(ancs)-1], "src", "x", "", 0.9),
			})
			if m.TP != 1 {
				t.Errorf("generalisation scored wrong: %+v", m)
			}
			return
		}
	}
	t.Skip("no hierarchical value found")
}

func TestScoreFusion(t *testing.T) {
	w, e, attr, val := testWorldAndEntity(t)
	sc := &Scorer{World: w}
	stmts := []rdf.Statement{
		extract.NewStatement(e.Name, attr, val, "s1", "x", "", 0.9),
		extract.NewStatement(e.Name, attr, val, "s2", "x", "", 0.9),
		extract.NewStatement(e.Name, attr, "wrong", "s3", "x", "", 0.9),
	}
	claims := fusion.BuildClaims(stmts, fusion.BySource)
	res := (&fusion.Vote{}).Fuse(claims)
	m := sc.ScoreFusion(res)
	if m.TP != 1 || m.FP != 0 {
		t.Errorf("fusion metrics = %+v", m)
	}
}

func TestScoreFusionCountsMissingTruths(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 10, AttrsPerEntity: 12})
	sc := &Scorer{World: w}
	// Find a non-functional attribute with 2+ values.
	for _, e := range w.EntitiesOf("Film") {
		for _, row := range e.Values {
			attr, vals := row.Attr, row.Values
			if len(vals) != 2 {
				continue
			}
			stmts := []rdf.Statement{
				extract.NewStatement(e.Name, attr, vals[0], "s1", "x", "", 0.9),
				extract.NewStatement(e.Name, attr, vals[1], "s2", "x", "", 0.9),
			}
			claims := fusion.BuildClaims(stmts, fusion.BySource)
			res := (&fusion.Vote{}).Fuse(claims) // single truth: misses one
			m := sc.ScoreFusion(res)
			if m.TP != 1 || m.FN != 1 {
				t.Errorf("multi-truth miss not counted: %+v", m)
			}
			return
		}
	}
	t.Skip("no multi-valued attribute found")
}

func TestCompareFusionMethods(t *testing.T) {
	w, e, attr, val := testWorldAndEntity(t)
	sc := &Scorer{World: w}
	stmts := []rdf.Statement{
		extract.NewStatement(e.Name, attr, val, "s1", "x", "", 0.9),
		extract.NewStatement(e.Name, attr, "wrong", "s2", "x", "", 0.4),
	}
	scores := sc.CompareFusionMethods(stmts, []fusion.Method{&fusion.Vote{}, &fusion.Accu{}}, fusion.BySource)
	if len(scores) != 2 {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].Method != "VOTE" || scores[1].Method != "ACCU" {
		t.Errorf("method order: %v", scores)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"Class", "N"}, [][]string{{"Book", "60"}, {"University", "518"}})
	if !strings.Contains(out, "| Class      | N   |") {
		t.Errorf("table formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("table has %d lines, want 6:\n%s", len(lines), out)
	}
	width := len(lines[0])
	for i, l := range lines {
		if len(l) != width {
			t.Errorf("line %d width %d != %d", i, len(l), width)
		}
	}
}

func TestNA(t *testing.T) {
	if NA(-1) != "N/A" || NA(5) != "5" || NA(0) != "0" {
		t.Error("NA rendering wrong")
	}
}
