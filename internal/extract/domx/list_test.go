package domx

import (
	"context"
	"strings"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/webgen"
)

func listSetup(t *testing.T) (*kb.World, []ListSite, *extract.EntityIndex) {
	t.Helper()
	w := kb.NewWorld(kb.WorldConfig{Seed: 12, EntitiesPerClass: 20, AttrsPerEntity: 12})
	pages := webgen.GenerateListPages(w, 2, webgen.ListConfig{
		PagesPerSite: 2, RowsPerPage: 8, Columns: 4, ValueErrorRate: 0.1,
	})
	classOf := func(host string) string {
		name := strings.SplitN(host, "-", 2)[0]
		for _, c := range w.Ontology.ClassNames() {
			if strings.ToLower(c) == name {
				return c
			}
		}
		return ""
	}
	sites := ListsFromWebgen(pages, classOf)
	return w, sites, extract.NewEntityIndexFromWorld(w)
}

func TestExtractListsFindsRecords(t *testing.T) {
	w, sites, idx := listSetup(t)
	res := ExtractLists(context.Background(), sites, idx, confidence.Default())
	if res.Regions == 0 || res.Records == 0 {
		t.Fatalf("no record regions found: %+v", res)
	}
	stmts := res.AppendStatements(nil)
	if len(stmts) == 0 {
		t.Fatal("no statements")
	}
	correct, total := 0, 0
	for _, s := range stmts {
		if err := s.Valid(); err != nil {
			t.Fatal(err)
		}
		entity := extract.AttrFromIRI(s.Subject)
		e, ok := w.Entity(entity)
		if !ok {
			t.Fatalf("statement about unknown entity %q", entity)
		}
		total++
		if w.IsTrue(e, extract.AttrFromIRI(s.Predicate), s.Object.Value) {
			correct++
		}
	}
	if prec := float64(correct) / float64(total); prec < 0.8 {
		t.Errorf("list extraction precision = %.3f (%d/%d)", prec, correct, total)
	}
}

func TestExtractListsHeaderAttrs(t *testing.T) {
	w, sites, idx := listSetup(t)
	res := ExtractLists(context.Background(), sites, idx, nil)
	for _, cls := range w.Ontology.ClassNames() {
		set := res.HeaderAttrs[cls]
		if set == nil || set.Len() == 0 {
			t.Errorf("%s: no header attributes", cls)
			continue
		}
		class := w.Ontology.Class(cls)
		for attr := range set {
			if _, ok := class.Attribute(attr); !ok {
				t.Errorf("%s: header attribute %q not in ontology", cls, attr)
			}
		}
	}
}

func TestExtractListsIgnoresSmallTables(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 12, EntitiesPerClass: 5, AttrsPerEntity: 8})
	idx := extract.NewEntityIndexFromWorld(w)
	films := w.EntityNames("Film")
	// A table is a record region once minRecordRows rows follow its header.
	for _, rows := range []int{minRecordRows - 1, minRecordRows} {
		html := `<table><tr><th>Name</th><th>Director:</th></tr>`
		for _, e := range films[:rows] {
			html += `<tr><td>` + e + `</td><td>X</td></tr>`
		}
		html += `</table>`
		sites := []ListSite{{Host: "h", Class: "Film", Pages: []ListPage{{URL: "/l", HTML: html}}}}
		res := ExtractLists(context.Background(), sites, idx, nil)
		want := 0
		if rows >= minRecordRows {
			want = 1
		}
		if res.Regions != want || res.Records != want*rows {
			t.Errorf("%d record rows: %d regions, %d records; want %d, %d", rows, res.Regions, res.Records, want, want*rows)
		}
	}
}

func TestExtractListsSkipsHeaderlessTables(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 12, EntitiesPerClass: 8, AttrsPerEntity: 8})
	idx := extract.NewEntityIndexFromWorld(w)
	var b strings.Builder
	b.WriteString("<table>")
	for _, e := range w.EntityNames("Film")[:5] {
		b.WriteString("<tr><td>" + e + "</td><td>x</td></tr>")
	}
	b.WriteString("</table>")
	sites := []ListSite{{Host: "h", Class: "Film", Pages: []ListPage{{URL: "/l", HTML: b.String()}}}}
	res := ExtractLists(context.Background(), sites, idx, nil)
	if res.Claims.Len() != 0 {
		t.Error("headerless table produced statements")
	}
}

func TestGeneratedListPagesParse(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 12, EntitiesPerClass: 10, AttrsPerEntity: 10})
	pages := webgen.GenerateListPages(w, 1, webgen.DefaultListConfig())
	if len(pages) != 5 {
		t.Fatalf("hosts = %d, want 5", len(pages))
	}
	for host, ps := range pages {
		for _, p := range ps {
			doc := htmldom.Parse(p.HTML)
			if doc.Find("table") == nil {
				t.Errorf("%s%s: no table", host, p.URL)
			}
			if len(p.Rows) == 0 {
				t.Errorf("%s%s: no truth rows", host, p.URL)
			}
			for _, row := range p.Rows {
				if _, ok := w.Entity(row.Entity); !ok {
					t.Errorf("%s: row entity %q unknown", host, row.Entity)
				}
			}
		}
	}
}
