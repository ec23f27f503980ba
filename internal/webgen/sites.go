// Package webgen generates the synthetic Web the extraction pipeline runs
// against: template-driven entity websites (DOM trees for Algorithm 1) and a
// natural-language text corpus (for the lexical-pattern extractor). Both are
// derived from the ground-truth world with controlled noise, replacing the
// live websites (imdb.com etc.) and Web crawl the paper used.
package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"akb/internal/htmldom"
	"akb/internal/kb"
)

// Page is one generated web page about a single entity.
type Page struct {
	// URL is the page's address within its site.
	URL string
	// Entity is the described entity's name.
	Entity string
	// HTML is the page markup.
	HTML string
	// Truth records the (attribute, value) pairs rendered on the page,
	// including injected errors, for test assertions. Extractors must not
	// read it.
	Truth []PairTruth
}

// PairTruth is one rendered attribute/value pair with its correctness flag.
type PairTruth struct {
	Attr    string
	Value   string
	Correct bool
}

// Site is a generated website: a set of entity pages sharing one template
// style with per-page jitter, mirroring the paper's observation that tag
// path patterns transfer poorly even within a site.
type Site struct {
	// Host is the site's hostname, e.g. "films-7.example.com".
	Host string
	// Class is the entity class the site covers.
	Class string
	// Style names the infobox layout used by the template.
	Style string
	Pages []*Page
}

// SiteConfig controls website generation.
type SiteConfig struct {
	Seed int64
	// SitesPerClass is the number of websites generated per class.
	SitesPerClass int
	// PagesPerSite is the number of entity pages per site.
	PagesPerSite int
	// AttrsPerPage caps the attribute rows rendered per page.
	AttrsPerPage int
	// ValueErrorRate is the probability a rendered value is wrong,
	// modelling unreliable Web sources.
	ValueErrorRate float64
	// NoiseNodes is the number of irrelevant text nodes injected per page
	// (navigation, ads, related links).
	NoiseNodes int
	// JitterProb is the probability an attribute row gains an extra
	// presentational wrapper, perturbing its tag path.
	JitterProb float64
	// GeneralizeProb is the probability a hierarchical value is rendered at
	// a coarser level (the region or country instead of the city). The
	// rendered value is still true — it exercises the paper's hierarchical
	// value spaces, where flat fusion wrongly treats such values as
	// conflicting.
	GeneralizeProb float64
	// SynonymProb is the probability an attribute label is rendered under a
	// synonymous surface form ("date of release" for "release date"),
	// exercising the fusion phase's synonym identification.
	SynonymProb float64
	// TypoProb is the probability a rendered value carries a one-character
	// transposition, exercising misspelling correction.
	TypoProb float64
	// HeterogeneousSites scales each site's value-error rate by a factor
	// cycling through {0.2, 0.6, 1.0, 2.5}, so some sites are far more
	// reliable than others — the condition under which per-source
	// provenance beats extractors-as-sources fusion.
	HeterogeneousSites bool
}

// layoutStyles are the site template families. Each renders an attribute
// row as (label node, value node) under a distinct DOM shape, so tag-path
// patterns induced on one site do not transfer to another.
var layoutStyles = []string{"table", "dl", "ul", "divgrid"}

// GenerateSites builds SitesPerClass websites for every class in the world.
func GenerateSites(w *kb.World, cfg SiteConfig) []*Site {
	if cfg.SitesPerClass <= 0 {
		cfg.SitesPerClass = 4
	}
	if cfg.PagesPerSite <= 0 {
		cfg.PagesPerSite = 12
	}
	if cfg.AttrsPerPage <= 0 {
		cfg.AttrsPerPage = 10
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var sites []*Site
	for _, class := range w.Ontology.ClassNames() {
		for si := 0; si < cfg.SitesPerClass; si++ {
			style := layoutStyles[si%len(layoutStyles)]
			site := &Site{
				Host:  fmt.Sprintf("%s-%d.example.com", strings.ToLower(class), si),
				Class: class,
				Style: style,
			}
			siteCfg := cfg
			if cfg.HeterogeneousSites {
				factors := []float64{0.2, 0.6, 1.0, 2.5}
				rate := cfg.ValueErrorRate * factors[si%len(factors)]
				if rate > 0.9 {
					rate = 0.9
				}
				siteCfg.ValueErrorRate = rate
			}
			entities := w.EntitiesOf(class)
			for pi := 0; pi < cfg.PagesPerSite && pi < len(entities); pi++ {
				// Different sites start at different entities so coverage
				// overlaps only partially (needed for fusion conflicts).
				e := entities[(pi+si*cfg.PagesPerSite/2)%len(entities)]
				site.Pages = append(site.Pages, renderPage(w, e, style, siteCfg, r))
			}
			sites = append(sites, site)
		}
	}
	return sites
}

func renderPage(w *kb.World, e *kb.Entity, style string, cfg SiteConfig, r *rand.Rand) *Page {
	var buf [64]int // the sampled positions stay on the stack
	var rows []PairTruth
	for _, k := range pageAttrs(e, cfg.AttrsPerPage, r, buf[:]) {
		attr, val := e.Values[k].Attr, e.Values[k].Values[0]
		correct := true
		if r.Float64() < cfg.ValueErrorRate {
			val = wrongValue(w, e, attr, r)
			correct = false
		} else {
			val = maybeGeneralize(w, val, cfg.GeneralizeProb, r)
		}
		if cfg.TypoProb > 0 && r.Float64() < cfg.TypoProb {
			if typoed := typoValue(val, r); typoed != val {
				val = typoed
				correct = false
			}
		}
		surface := attr
		if cfg.SynonymProb > 0 && r.Float64() < cfg.SynonymProb {
			surface = SynonymName(attr)
		}
		rows = append(rows, PairTruth{Attr: surface, Value: val, Correct: correct})
	}

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><title>")
	b.WriteString(esc(e.Name))
	b.WriteString("</title></head>\n<body>\n")
	b.WriteString(`<div id="nav"><a href="/">Home</a> <a href="/about">About</a></div>` + "\n")
	b.WriteString(`<h1 class="entity-name">` + esc(e.Name) + "</h1>\n")
	renderInfobox(&b, style, rows, cfg.JitterProb, r)
	for i := 0; i < cfg.NoiseNodes; i++ {
		b.WriteString(noiseBlock(r))
	}
	b.WriteString("</body></html>\n")

	return &Page{
		URL:    "/" + strings.ReplaceAll(strings.ToLower(e.Name), " ", "-"),
		Entity: e.Name,
		HTML:   b.String(),
		Truth:  rows,
	}
}

// pageAttrs samples up to n of the entity's rows, deterministically per
// call sequence: their positions in name order, shuffled with the shared
// rng, the first n kept. It writes them over buf's backing array.
func pageAttrs(e *kb.Entity, n int, r *rand.Rand, buf []int) []int {
	pos := buf[:0]
	for i := range e.Values {
		pos = append(pos, i)
	}
	r.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	return pos[:min(n, len(pos))]
}

// maybeGeneralize replaces a hierarchical value with one of its true
// generalisations with the given probability.
func maybeGeneralize(w *kb.World, val string, prob float64, r *rand.Rand) string {
	if prob <= 0 || r.Float64() >= prob {
		return val
	}
	ancs := w.Hier.Ancestors(val)
	if len(ancs) == 0 {
		return val
	}
	return ancs[r.Intn(len(ancs))]
}

func wrongValue(w *kb.World, e *kb.Entity, attr string, r *rand.Rand) string {
	// Plausible confusion: another entity's value for the same attribute,
	// falling back to a corrupted string.
	others := w.EntitiesOf(e.Class)
	for tries := 0; tries < 8; tries++ {
		o := others[r.Intn(len(others))]
		if o != e && o.Value(attr) != "" && o.Value(attr) != e.Value(attr) {
			return o.Value(attr)
		}
	}
	return e.Value(attr) + " Jr"
}

// SynonymName renders a synonymous surface form for a multi-word attribute
// name by reversing it around "of": "release date" -> "date of release".
// Single-word names have no variant and are returned unchanged.
func SynonymName(attr string) string {
	words := strings.Fields(attr)
	if len(words) < 2 {
		return attr
	}
	last := words[len(words)-1]
	rest := strings.Join(words[:len(words)-1], " ")
	return last + " of " + rest
}

// typoValue introduces a single adjacent-character transposition into
// non-numeric values of reasonable length.
func typoValue(v string, r *rand.Rand) string {
	if len(v) < 5 {
		return v
	}
	digits := 0
	for _, c := range v {
		if c >= '0' && c <= '9' {
			digits++
		}
	}
	if digits*2 > len(v) {
		return v
	}
	b := []byte(v)
	// Swap two adjacent letters somewhere inside the word.
	for tries := 0; tries < 8; tries++ {
		i := 1 + r.Intn(len(b)-2)
		if b[i] != ' ' && b[i+1] != ' ' && b[i] != b[i+1] {
			b[i], b[i+1] = b[i+1], b[i]
			return string(b)
		}
	}
	return v
}

// labelText renders an attribute's on-page label: Title Case plus a colon,
// as sites commonly style infobox labels.
func labelText(attr string) string {
	words := strings.Fields(attr)
	for i, w := range words {
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ") + ":"
}

func renderInfobox(b *strings.Builder, style string, rows []PairTruth, jitter float64, r *rand.Rand) {
	wrapVal := func(v string) string {
		v = esc(v)
		if r.Float64() < jitter {
			return "<b>" + v + "</b>"
		}
		return v
	}
	switch style {
	case "table":
		b.WriteString(`<table class="infobox">` + "\n")
		for _, row := range rows {
			b.WriteString("<tr><th>" + esc(labelText(row.Attr)) + "</th><td>" + wrapVal(row.Value) + "</td></tr>\n")
		}
		b.WriteString("</table>\n")
	case "dl":
		b.WriteString(`<dl class="facts">` + "\n")
		for _, row := range rows {
			b.WriteString("<dt>" + esc(labelText(row.Attr)) + "</dt><dd>" + wrapVal(row.Value) + "</dd>\n")
		}
		b.WriteString("</dl>\n")
	case "ul":
		b.WriteString(`<ul class="props">` + "\n")
		for _, row := range rows {
			b.WriteString(`<li><span class="k">` + esc(labelText(row.Attr)) + `</span> <span class="v">` + wrapVal(row.Value) + "</span></li>\n")
		}
		b.WriteString("</ul>\n")
	default: // divgrid
		b.WriteString(`<div class="grid">` + "\n")
		for _, row := range rows {
			b.WriteString(`<div class="row"><div class="key">` + esc(labelText(row.Attr)) + `</div><div class="val">` + wrapVal(row.Value) + "</div></div>\n")
		}
		b.WriteString("</div>\n")
	}
}

var noiseTexts = []string{
	"Advertisement", "Sign up for our newsletter", "Related articles",
	"Trending now", "Share this page", "Copyright 2015 Example Media",
	"Sponsored content", "Popular this week", "Cookie policy",
}

func noiseBlock(r *rand.Rand) string {
	t := noiseTexts[r.Intn(len(noiseTexts))]
	switch r.Intn(3) {
	case 0:
		return `<div class="ad">` + esc(t) + "</div>\n"
	case 1:
		return "<p>" + esc(t) + "</p>\n"
	default:
		return `<aside><span>` + esc(t) + "</span></aside>\n"
	}
}

// esc runs several times per rendered row, so it must not build anything
// per call: htmldom's escaper is a package-level Replacer.
func esc(s string) string { return htmldom.EscapeText(s) }
