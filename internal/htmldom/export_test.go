package htmldom

// Intern numbers a step for the tests that write paths by hand.
func (p *Parser) Intern(tag, class string) Step {
	if p.steps == nil {
		p.init(0)
	}
	return p.intern(tag, class)
}

// DocStep is the step of a document node.
const DocStep = docStep

// DepthOf is the depth the parser recorded for n.
func DepthOf(n *Node) int { return int(n.depth) }

// StepOf is the path step the parser numbered n with.
func StepOf(n *Node) Step { return n.step }

// FuzzSeeds are the documents every parser fuzzer starts from, and the
// rules tests run on: implied ends, void elements, stray end tags,
// raw-text elements, entities, comments, the two raw-text bodies whose
// lower-cased form has another length than they have, and two whose end tag
// the input ends inside (dropped: see scanner.next).
var FuzzSeeds = []string{
	"",
	"plain text",
	"<html><body><p>x</p></body></html>",
	"<table><tr><td>a<td>b<tr><td>c</table>",
	"<ul><li>one<li>two</ul>",
	"<div class=\"a b\"><span>nested <b>deep</b></span></div>",
	"<!DOCTYPE html><!-- c --><p>&amp;&lt;&gt;</p>",
	"<script>if (a<b) {}</script>after",
	"</div></div><p>stray",
	"<unclosed attr='v",
	"<<<>>>",
	"<a href=x>y</a><br/><img src=z>",
	"<script>ȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺȺ</script>",
	"<style>İİİİKKKK</style><p>after</p>",
	"<style>000</style",
	"<stYle>000</stYle",
	"<head><title>t</title><p>in head</head><body class=' \t x y'>  <p class=>a b<dl><dt>k<dd>v<dt>k2</dl><option>1<option>2",
}
