// Package datalog answers conjunctive queries over the fused KB — the
// "actionable" half of the paper's promise. A query is a conjunction of
// triple patterns with shared variables ("find entities whose director
// also won an award"), evaluated against any store.Querier — the store at
// any shard count, or a wrapper such as the chaos injector — through its
// one read, Select, and the cursor that read returns, with byte-identical
// results across all of them.
//
// The design follows the janus-datalog line of work (SNIPPETS papers
// 1–3) in two deliberate simplifications:
//
//   - Greedy, statistics-free planning. Clauses are ordered by
//     selectivity estimated directly from the postings lists the store
//     already maintains (Querier.CountEstimate); there is no statistics
//     catalog to build, refresh or mistrust. Greedy ordering is provably
//     good enough for pattern-shaped queries and plans in microseconds.
//
//   - Streaming iterator execution on numbers. The plan runs as a
//     left-deep chain of index-nested-loop joins: bindings flow depth-first
//     through the clauses, and a binding is a row of string IDs — the
//     numbers the store's columns and indexes are keyed by (store.Names) —
//     read off each match (store.Cursor.IDs) and compared as integers. The
//     page keeps the rows as IDs too (Result.IDs), and a row becomes strings
//     only where the answer leaves: Result.Rows spells it for a library
//     caller, the server's encoder writes each ID's name into the response
//     body. No intermediate relation is ever materialised; peak memory is
//     one binding row plus the result page. Where a probe reads depends on where its entity came
//     from. The store keeps an entity's facts as one run of one shard's
//     array and a cursor can hand out the run of the fact it just yielded,
//     so a step that binds a variable from a fact's entity position keeps
//     that run beside the binding, and a later probe on the variable reads
//     inside it by number (store.Run.Where, its constants found once a
//     query): no name looked up, no shard hash, no search for the entity,
//     no new read of the store — and still one probe. A variable bound from
//     a value or attribute position, or out of a hash bucket, has no run,
//     and its probe opens Select on the store with the bound names. Joins
//     that index probing cannot serve well — value-position equijoins (the
//     value postings are hierarchy-inflated supersets) and clauses
//     disconnected from the bound prefix — fall back to a hash join that
//     builds the clause's base relation once, keyed by value ID (one key
//     table, one offset slice, one arena — the slice the read filled, its
//     matches swapped into their buckets in place, and reused by the next
//     execution once this one has ended), and probes it per binding.
//
// Results always arrive in left-deep nested-loop order (first clause in
// canonical fact order, probe results in canonical order per binding), at
// any shard count and any parallelism. The order is owed only to the rows
// that are returned. Once the page is full (Query.Limit rows) what is left
// is only counted: the serial path releases its first cursor's order
// (store.Cursor.Unordered), so a scatter stops merging, and a suffix of
// steps that reads no variable bound inside it is not enumerated at all —
// its matches are the product of each step's count (a narrowed run, a
// bucket's length, a read counted where it lies). When that suffix is a star
// on the entity a cursor's step binds, what the cursor has left is counted
// by one merge of the store's sorted lists beside it
// (store.Cursor.CountProducts), not a read a binding. The parallel path
// partitions the first clause's stream into fixed-size batches — each
// match with its run — whose decomposition does not depend on the worker
// count, and never releases the order: a batch cannot know whether the
// ones before it filled the page. Each batch counts past its own page.
package datalog

import (
	"fmt"
	"slices"
	"strings"

	"akb/internal/store"
)

// MaxClauses bounds a query's clause count. Sixteen conjuncts is far
// beyond any real pattern query and keeps adversarial requests from
// turning the planner's O(n²) greedy loop or the executor's recursion
// into a resource sink.
const MaxClauses = 16

// Term is one position of a clause: a constant or a variable. Exactly
// one of Const and Var is meaningful; a Term with a non-empty Var is a
// variable (named without the '?' sigil).
type Term struct {
	// Const is the constant text the position must match.
	Const string
	// Var names the variable this position binds or joins on. Non-empty
	// Var wins over Const.
	Var string
}

// V returns a variable term (name without the '?' sigil).
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(text string) Term { return Term{Const: text} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in the surface grammar: variables with the
// '?' sigil, constants quoted when they contain whitespace or grammar
// metacharacters. The rendering parses back to the same term.
func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	if t.Const == "" || strings.ContainsAny(t.Const, " \t\r\n\"?.") {
		return quoteConst(t.Const)
	}
	return t.Const
}

// quoteConst wraps a constant in the grammar's double quotes, escaping
// exactly what lexQuoted unescapes: '"', '\' and newline.
func quoteConst(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Clause is one triple pattern: entity, attribute and value positions,
// each a constant or a variable, plus an optional class restriction on
// the entity. Constant value positions match hierarchically (like
// store.Pattern: "Australia" finds Adelaide); variable value positions
// join exactly.
type Clause struct {
	Entity Term
	Attr   Term
	Value  Term
	// Class restricts the clause's entity to one ontology class
	// (surface form: ?e:Film). Empty means unrestricted.
	Class string
}

// String renders the clause in the surface grammar.
func (c Clause) String() string {
	e := c.Entity.String()
	if c.Class != "" && c.Entity.IsVar() {
		e += ":" + c.Class
	}
	return e + " " + c.Attr.String() + " " + c.Value.String()
}

// Query is a conjunctive datalog query: every clause must hold
// simultaneously under one assignment of the variables. Select projects
// the result rows onto a subset of the variables (empty: all variables
// in first-appearance order); Limit caps the materialised rows while the
// total match count stays exact, mirroring /v1/query's truncation
// semantics.
type Query struct {
	Clauses []Clause
	Select  []string
	Limit   int
}

// String renders the query in the surface grammar, clauses joined with
// " . ".
func (q Query) String() string {
	parts := make([]string, len(q.Clauses))
	for i, c := range q.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " . ")
}

// Vars returns the query's variables in first-appearance order (clause
// by clause, entity then attribute then value) — the default projection
// and the column order of a Result's page when Select is empty.
func (q Query) Vars() []string {
	vars := make([]string, 0, 3*len(q.Clauses))
	for _, c := range q.Clauses {
		for _, t := range [...]Term{c.Entity, c.Attr, c.Value} {
			if t.IsVar() && !slices.Contains(vars, t.Var) {
				vars = append(vars, t.Var)
			}
		}
	}
	if len(vars) == 0 {
		return nil
	}
	return vars
}

// Validate checks the query's shape: clause count within bounds, no
// empty terms, class restrictions only alongside entity terms, selected
// variables actually bound by some clause, and a non-negative limit.
func (q Query) Validate() error {
	if len(q.Clauses) == 0 {
		return fmt.Errorf("datalog: query has no clauses")
	}
	if len(q.Clauses) > MaxClauses {
		return fmt.Errorf("datalog: %d clauses exceeds the limit of %d", len(q.Clauses), MaxClauses)
	}
	if q.Limit < 0 {
		return fmt.Errorf("datalog: negative limit %d", q.Limit)
	}
	for i, c := range q.Clauses {
		for pos, t := range []Term{c.Entity, c.Attr, c.Value} {
			if !t.IsVar() && t.Const == "" {
				return fmt.Errorf("datalog: clause %d: empty %s term", i+1, posName(pos))
			}
			if strings.ContainsAny(t.Var, " \t\n") {
				return fmt.Errorf("datalog: clause %d: variable %q contains whitespace", i+1, t.Var)
			}
		}
	}
	if len(q.Select) > 0 {
		vars := q.Vars()
		for _, s := range q.Select {
			if !slices.Contains(vars, s) {
				return fmt.Errorf("datalog: selected variable ?%s appears in no clause", s)
			}
		}
	}
	return nil
}

// Result is one query's answer: its page holds the variable bindings
// (columns aligned with Vars) as the store's string IDs, at most Limit rows
// of them, while Total counts every match and Truncated reports whether the
// cap cut the row set. The page is spelled where it leaves: Rows makes its
// strings, an encoder reads them through Names one at a time.
type Result struct {
	// Vars names the columns of the page: the selected variables, or every
	// query variable in first-appearance order.
	Vars []string
	// IDs is the page: Count rows of len(Vars) string IDs each, one after
	// another, in deterministic left-deep nested-loop order; row i is
	// IDs[i*len(Vars):(i+1)*len(Vars)]. Names spells an ID.
	IDs []uint32
	// Count is the number of rows in the page. It is kept apart from IDs
	// because a query of constants only has rows of no columns.
	Count int
	// Names is the string table of the store the query read: what the IDs
	// are numbers in.
	Names store.Names
	// Total is the exact number of matching bindings, counted past any
	// limit: once the page is full, a suffix of the plan that reads no
	// variable bound inside it is counted — the product of each step's
	// matches — not enumerated. A total that does not fit in an int is
	// ErrTotalOverflow, never a wrapped one.
	Total int
	// Truncated reports Total > Count.
	Truncated bool
	// Probes counts the executor's index reads — the first clause's scan,
	// each hash relation's build, and one read a step a binding, whether it
	// enumerates the step's matches or, in a counted suffix, only counts
	// them, stopping at a zero product. A star's tail counted by one merge
	// of the store's lists (store.Cursor.CountProducts) is charged as that
	// read a binding would be, so the number is the same however a count is
	// made. It is the executor's work metric, exposed for tests, explain
	// output and the akb_datalog_probes_total counter.
	Probes int64
}

// Rows spells the page: one row of strings per binding, row[i] the value of
// Vars[i], made afresh on every call; nil when the page is empty.
func (r *Result) Rows() [][]string {
	if r.Count == 0 {
		return nil
	}
	w := len(r.Vars)
	rows := make([][]string, r.Count)
	cells := make([]string, len(r.IDs))
	for i, id := range r.IDs {
		cells[i] = r.Names.Name(id)
	}
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

func posName(pos int) string {
	switch pos {
	case 0:
		return "entity"
	case 1:
		return "attr"
	default:
		return "value"
	}
}
