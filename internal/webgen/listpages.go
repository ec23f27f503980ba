package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"akb/internal/kb"
)

// ListRow records one entity row rendered on a list page.
type ListRow struct {
	Entity string
	Pairs  []PairTruth
}

// ListPage is a multi-record page: a table of entities sharing the same
// attribute columns, the "list page" setting of the record-mining
// literature the paper surveys (Liu et al., Bing et al.).
type ListPage struct {
	URL string
	// Attrs are the column attributes (after the leading name column).
	Attrs []string
	HTML  string
	Rows  []ListRow
}

// The shape of the list pages: pages per site, entity rows per page,
// attribute columns besides the name, and the share of cell values that
// are corrupted.
const (
	listPagesPerSite   = 2
	listRowsPerPage    = 8
	listColumns        = 4
	listValueErrorRate = 0.1
)

// GenerateListPages builds list pages for every class, one batch per
// (class, site index). Column attributes are drawn from the class's curated
// core so most listed entities have values.
func GenerateListPages(w *kb.World, sitesPerClass int) map[string][]*ListPage {
	r := rand.New(rand.NewSource(77))
	out := map[string][]*ListPage{}
	for _, class := range w.Ontology.ClassNames() {
		entities := w.EntitiesOf(class)
		attrs := w.Ontology.Class(class).AttributeNames()
		if listColumns < len(attrs) {
			attrs = attrs[:listColumns]
		}
		for si := 0; si < sitesPerClass; si++ {
			host := fmt.Sprintf("%s-%d.example.com", strings.ToLower(class), si)
			for pi := 0; pi < listPagesPerSite; pi++ {
				page := renderListPage(w, entities, attrs, si, pi, r)
				out[host] = append(out[host], page)
			}
		}
	}
	return out
}

func renderListPage(w *kb.World, entities []*kb.Entity, attrs []string, si, pi int, r *rand.Rand) *ListPage {
	page := &ListPage{
		URL:   fmt.Sprintf("/list-%d", pi),
		Attrs: append([]string(nil), attrs...),
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><title>Listing</title></head>\n<body>\n")
	b.WriteString("<h2>Top entries</h2>\n")
	b.WriteString(`<table class="listing">` + "\n<tr><th>Name</th>")
	for _, a := range attrs {
		b.WriteString("<th>" + esc(labelText(a)) + "</th>")
	}
	b.WriteString("</tr>\n")
	start := (si*listPagesPerSite + pi) * listRowsPerPage / 2
	for i := 0; i < listRowsPerPage && i < len(entities); i++ {
		e := entities[(start+i)%len(entities)]
		row := ListRow{Entity: e.Name}
		b.WriteString("<tr><td>" + esc(e.Name) + "</td>")
		for _, a := range attrs {
			val := e.Value(a)
			correct := true
			if val == "" {
				b.WriteString("<td>-</td>")
				continue
			}
			if r.Float64() < listValueErrorRate {
				val = wrongValue(w, e, a, r)
				correct = false
			}
			b.WriteString("<td>" + esc(val) + "</td>")
			row.Pairs = append(row.Pairs, PairTruth{Attr: a, Value: val, Correct: correct})
		}
		b.WriteString("</tr>\n")
		page.Rows = append(page.Rows, row)
	}
	b.WriteString("</table>\n<p>Generated listing.</p>\n</body></html>\n")
	page.HTML = b.String()
	return page
}
