package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/store"
)

// cmdQuery is the one query command over the fused KB: single patterns
// and multi-clause conjunctive datalog, against a snapshot file, an
// inline pipeline run, or a live `akb serve` over HTTP — same query
// language, same results, whichever backend answers.
//
//	akb query -attr director                           # single pattern
//	akb query '?f:Film director ?d . ?f award ?a'      # conjunctive join
//	akb query -snapshot kb.snap '?e "birth place" ?p'  # against a snapshot
//	akb query -server http://localhost:8080 '?e ?a ?v' # against a server
func cmdQuery(args []string) error {
	fs, seed := newFlagSet("query")
	snapPath := fs.String("snapshot", "", "query this snapshot file instead of running the pipeline")
	shards := fs.Int("shards", 0, "store layout: 0 keeps the snapshot's stored layout (one flat store for an inline pipeline run), 1 flat, N re-shards")
	server := fs.String("server", "", "query a running akb serve at this base URL (e.g. http://localhost:8080)")
	entity := fs.String("entity", "", "single-pattern mode: entity constant")
	attr := fs.String("attr", "", "single-pattern mode: attribute constant")
	value := fs.String("value", "", "single-pattern mode: value constant (hierarchical match)")
	class := fs.String("class", "", "single-pattern mode: restrict entities to this class")
	sel := fs.String("select", "", "comma-separated variables to project (default: all, in first-appearance order)")
	limit := fs.Int("limit", 0, "cap returned rows (0: no local cap; servers apply their own ceiling)")
	parallel := fs.Int("parallel", 1, "executor workers; results are identical at any value")
	naive := fs.Bool("naive", false, "execute clauses left-to-right instead of the greedy plan")
	explain := fs.Bool("explain", false, "print the chosen plan before the results")
	jsonOut := fs.Bool("json", false, "emit JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text := strings.Join(fs.Args(), " ")
	patternMode := *entity != "" || *attr != "" || *value != "" || *class != ""
	if patternMode && text != "" {
		return fmt.Errorf("give either the pattern flags (-entity/-attr/-value/-class) or a datalog query, not both")
	}
	if !patternMode && text == "" {
		return fmt.Errorf("nothing to ask: pass a datalog query (e.g. '?f director ?d . ?f award ?a') or pattern flags; see akb query -h")
	}
	if *limit < 0 {
		return fmt.Errorf("-limit %d is negative", *limit)
	}
	if *entity != "" && *class != "" {
		return fmt.Errorf("-class restricts an entity variable; it cannot be given with a constant -entity")
	}
	q, err := buildQuery(patternMode, *entity, *attr, *value, *class, text)
	if err != nil {
		return err
	}
	if *sel != "" {
		for _, v := range strings.Split(*sel, ",") {
			q.Select = append(q.Select, strings.TrimSpace(strings.TrimPrefix(v, "?")))
		}
	}
	q.Limit = *limit

	var res *datalog.Result
	if *server != "" {
		res, err = queryServer(*server, q, *parallel, *explain)
	} else {
		res, err = queryLocal(q, *snapPath, *shards, *seed, *parallel, *naive, *explain)
	}
	if err != nil {
		return err
	}
	return printAnswer(q.String(), res, *jsonOut)
}

// queryLocal runs the query against a snapshot, or an inline pipeline run.
func queryLocal(q datalog.Query, snapPath string, shards int, seed int64, parallel int, naive, explain bool) (*datalog.Result, error) {
	var src *store.Sharded
	if snapPath != "" {
		var info store.SnapshotInfo
		var err error
		if src, info, err = openSnapshot(snapPath, shards); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (%s), querying %d shard(s)\n",
			snapPath, info, src.ShardCount())
	} else {
		fmt.Fprintf(os.Stderr, "no -snapshot given; running pipeline (seed %d) ...\n", seed)
		res, err := core.New(core.WithSeed(seed)).Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		src = store.NewSharded(res.Facts(), max(shards, 1))
	}

	var plan *datalog.Plan
	var err error
	if naive {
		plan, err = datalog.NaivePlan(q, src)
	} else {
		plan, err = datalog.PlanQuery(q, src)
	}
	if err != nil {
		return nil, err
	}
	if explain {
		fmt.Fprintf(os.Stderr, "plan for %s:\n%s", q, plan)
	}
	res, err := datalog.RunPlan(context.Background(), src, q, plan, datalog.Options{Parallelism: parallel})
	if err != nil {
		return nil, err
	}
	if explain {
		fmt.Fprintf(os.Stderr, "%d index probes\n", res.Probes)
	}
	return res, nil
}

// printAnswer prints a result as a table or as JSON, the same bytes
// whichever backend answered.
func printAnswer(query string, res *datalog.Result, jsonOut bool) error {
	rows := res.Rows
	if rows == nil {
		rows = [][]string{} // an empty answer prints [], as /v1/datalog's bindings do
	}
	if jsonOut {
		return printJSON(map[string]any{
			"query": query, "vars": res.Vars, "count": len(rows),
			"total": res.Total, "truncated": res.Truncated, "rows": rows,
		})
	}
	printRows(varHeaders(res.Vars), rows)
	fmt.Printf("%d rows", len(rows))
	if res.Truncated {
		fmt.Printf(" (of %d total, truncated)", res.Total)
	}
	fmt.Println()
	return nil
}

// buildQuery builds the datalog query either backend runs: the pattern
// flags become a single clause with fresh variables in the open
// positions — the unified-API point that a pattern IS a one-clause
// query.
func buildQuery(patternMode bool, entity, attr, value, class, text string) (datalog.Query, error) {
	if !patternMode {
		return datalog.Parse(text)
	}
	term := func(konst, varname string) datalog.Term {
		if konst != "" {
			return datalog.C(konst)
		}
		return datalog.V(varname)
	}
	return datalog.Query{Clauses: []datalog.Clause{{
		Entity: term(entity, "e"),
		Attr:   term(attr, "a"),
		Value:  term(value, "v"),
		Class:  class,
	}}}, nil
}

// queryServer sends the query to POST /v1/datalog and reads the answer
// back into the result the local executor returns.
func queryServer(base string, q datalog.Query, parallel int, explain bool) (*datalog.Result, error) {
	payload, err := json.Marshal(struct {
		Query       string   `json:"query"`
		Select      []string `json:"select,omitempty"`
		Limit       int      `json:"limit,omitempty"`
		Parallelism int      `json:"parallelism,omitempty"`
		Explain     bool     `json:"explain,omitempty"`
	}{q.String(), q.Select, q.Limit, parallel, explain})
	if err != nil {
		return nil, err
	}
	var body struct {
		Plan      []string            `json:"plan"`
		Vars      []string            `json:"vars"`
		Total     int                 `json:"total"`
		Truncated bool                `json:"truncated"`
		Bindings  []map[string]string `json:"bindings"`
	}
	if err := postJSON(strings.TrimRight(base, "/")+"/v1/datalog", payload, &body); err != nil {
		return nil, err
	}
	if explain {
		fmt.Fprintf(os.Stderr, "plan for %s:\n", q)
		for _, step := range body.Plan {
			fmt.Fprintln(os.Stderr, step)
		}
	}
	res := &datalog.Result{Vars: body.Vars, Total: body.Total, Truncated: body.Truncated}
	for _, b := range body.Bindings {
		row := make([]string, len(body.Vars))
		for i, v := range body.Vars {
			row[i] = b[v]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// postJSON posts one API call and decodes the JSON answer into out,
// turning the error envelope of a non-2xx response into a CLI error.
func postJSON(url string, payload []byte, out any) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Error != "" {
			return fmt.Errorf("server: %s (status %d)", env.Error, resp.StatusCode)
		}
		return fmt.Errorf("server returned %s: %.200s", resp.Status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("server returned %s with a body that is not the expected JSON (%v): %.200s", resp.Status, err, raw)
	}
	return nil
}

// varHeaders renders variable names as surface-grammar column heads.
func varHeaders(vars []string) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = "?" + v
	}
	return out
}

// printRows renders an aligned table, one row per binding.
func printRows(header []string, rows [][]string) {
	if len(header) == 0 {
		return
	}
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Println(strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
