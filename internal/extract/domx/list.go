package domx

import (
	"context"
	"sort"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/htmldom"
	"akb/internal/obs"
	"akb/internal/rdf"
	"akb/internal/webgen"
)

// This file implements data-record extraction from list pages — the
// multi-record setting of the wrapper-induction literature the paper
// surveys (Liu et al. KDD'03, Bing et al. CIKM'11): a table whose rows each
// describe one entity, with a header row naming the attribute columns. The
// extractor detects record regions by repetition (several sibling rows with
// the same cell signature, each containing a recognised entity), pairs
// cells to header labels, and emits one statement per cell.

// ListPage is one multi-record page as it was fetched.
type ListPage struct {
	URL  string
	HTML string
}

// ListSite groups list pages per host.
type ListSite struct {
	Host  string
	Class string
	Pages []ListPage
}

// ListsFromWebgen adapts generated list pages for extraction.
func ListsFromWebgen(w map[string][]*webgen.ListPage, classOf func(host string) string) []ListSite {
	hosts := make([]string, 0, len(w))
	for h := range w {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	out := make([]ListSite, 0, len(hosts))
	for _, h := range hosts {
		site := ListSite{Host: h, Class: classOf(h)}
		for _, p := range w[h] {
			site.Pages = append(site.Pages, ListPage{URL: p.URL, HTML: p.HTML})
		}
		out = append(out, site)
	}
	return out
}

// ListResult is the list-extraction outcome.
type ListResult struct {
	// Claims are the counted extracted claims, one statement per (claim,
	// host): Claims.Len() statements, made by AppendStatements.
	Claims *extract.Evidence
	score  func(support, sources int) float64
	// Records counts extracted entity rows.
	Records int
	// Regions counts detected record regions (tables).
	Regions int
	// HeaderAttrs is the set of attribute labels seen in headers, per class.
	HeaderAttrs map[string]extract.AttrSet
}

// minRecordRows is the repetition threshold for a record region: the
// record rows a table needs below its header.
const minRecordRows = 3

// ExtractLists mines record regions from list pages.
func ExtractLists(ctx context.Context, sites []ListSite, idx *extract.EntityIndex, crit *confidence.Criterion) *ListResult {
	res := &ListResult{HeaderAttrs: map[string]extract.AttrSet{}, Claims: extract.NewEvidence(), score: crit.ScoreFunc(extract.ExtractorDOM)}
	var parser htmldom.Parser // one page's tree at a time

	for _, site := range sites {
		set := res.HeaderAttrs[site.Class]
		if set == nil {
			set = extract.NewAttrSet()
			res.HeaderAttrs[site.Class] = set
		}
		for _, p := range site.Pages {
			parser.Reset()
			for _, table := range parser.Parse(p.HTML).Root.FindAll("table") {
				rows := directRows(table)
				if len(rows) < minRecordRows+1 {
					continue
				}
				header, ok := headerLabels(rows[0])
				if !ok {
					continue
				}
				// Record rows: same cell count, first cell a known entity.
				records := 0
				for _, row := range rows[1:] {
					cells := cellTexts(row)
					if len(cells) != len(header) {
						continue
					}
					entity := cells[0]
					if c, known := idx.Class(entity); !known || c != site.Class {
						continue
					}
					records++
					for i := 1; i < len(cells); i++ {
						attr := header[i]
						value := cells[i]
						if attr == "" || value == "" || value == "-" {
							continue
						}
						set.Add(attr, site.Host)
						res.Claims.Add(entity, attr, value, site.Host, p.URL)
					}
				}
				if records >= minRecordRows {
					res.Regions++
					res.Records += records
				}
			}
		}
	}
	res.Claims.Count()
	reg := obs.Reg(ctx)
	reg.Counter("akb_domx_list_records_total").Add(int64(res.Records))
	reg.Counter("akb_domx_list_statements_total").Add(int64(res.Claims.Len()))
	return res
}

// AppendStatements appends the claims' statements to dst.
func (r *ListResult) AppendStatements(dst []rdf.Statement) []rdf.Statement {
	return r.Claims.AppendStatements(dst, extract.ExtractorDOM, r.score)
}

// directRows returns the table's tr descendants that belong to this table
// (not to a nested table).
func directRows(table *htmldom.Node) []*htmldom.Node {
	var rows []*htmldom.Node
	table.Walk(func(n *htmldom.Node) bool {
		if n != table && n.Kind == htmldom.ElementNode && n.Tag == "table" {
			return false
		}
		if n.Kind == htmldom.ElementNode && n.Tag == "tr" {
			rows = append(rows, n)
		}
		return true
	})
	return rows
}

// headerLabels extracts normalised labels from a header row of th cells.
// The first column is the record-name column and stays empty.
func headerLabels(row *htmldom.Node) ([]string, bool) {
	ths := row.FindAll("th")
	if len(ths) < 2 {
		return nil, false
	}
	out := make([]string, len(ths))
	for i, th := range ths {
		if i == 0 {
			continue // name column
		}
		label := extract.NormalizeLabel(th.InnerText())
		if !extract.ValidAttributeLabel(label) {
			return nil, false
		}
		out[i] = label
	}
	return out, true
}

// cellTexts returns the normalised texts of a row's td cells.
func cellTexts(row *htmldom.Node) []string {
	tds := row.FindAll("td")
	out := make([]string, len(tds))
	for i, td := range tds {
		out[i] = td.InnerText()
	}
	return out
}
