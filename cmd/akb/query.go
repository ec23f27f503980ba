package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	var selected []string
	if *sel != "" {
		for _, v := range strings.Split(*sel, ",") {
			selected = append(selected, strings.TrimSpace(strings.TrimPrefix(v, "?")))
		}
	}

	// Remote single-pattern queries ride the plain /v1/query URL form;
	// everything else speaks /v1/datalog.
	if *server != "" {
		if patternMode {
			return queryServerPattern(*server, store.Pattern{
				Entity: *entity, Attr: *attr, Value: *value, Class: *class,
			}, *limit, *jsonOut)
		}
		return queryServerDatalog(*server, text, selected, *limit, *parallel, *explain, *jsonOut)
	}

	// Local: snapshot, or an inline pipeline run.
	var src *store.Sharded
	if *snapPath != "" {
		var info store.SnapshotInfo
		var err error
		if src, info, err = openSnapshot(*snapPath, *shards); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (%s), querying %d shard(s)\n",
			*snapPath, info, src.ShardCount())
	} else {
		fmt.Fprintf(os.Stderr, "no -snapshot given; running pipeline (seed %d) ...\n", *seed)
		res, err := core.New(core.WithSeed(*seed)).Run(context.Background())
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		src = store.NewSharded(store.ResultFacts(res), max(*shards, 1))
	}

	q, err := localQuery(patternMode, *entity, *attr, *value, *class, text)
	if err != nil {
		return err
	}
	q.Select = selected
	q.Limit = *limit

	var plan *datalog.Plan
	if *naive {
		plan, err = datalog.NaivePlan(q, src)
	} else {
		plan, err = datalog.PlanQuery(q, src)
	}
	if err != nil {
		return err
	}
	if *explain {
		fmt.Fprintf(os.Stderr, "plan for %s:\n%s", q, plan)
	}
	res, err := datalog.RunPlan(context.Background(), src, q, plan, datalog.Options{Parallelism: *parallel})
	if err != nil {
		return err
	}
	if *jsonOut {
		rows := res.Rows
		if rows == nil {
			rows = [][]string{} // an empty answer prints [], as /v1/datalog's bindings do
		}
		return printJSON(map[string]any{
			"query": q.String(), "vars": res.Vars, "count": len(rows),
			"total": res.Total, "truncated": res.Truncated, "rows": rows,
		})
	}
	printRows(varHeaders(res.Vars), res.Rows)
	fmt.Printf("%d rows", len(res.Rows))
	if res.Truncated {
		fmt.Printf(" (of %d total, truncated)", res.Total)
	}
	fmt.Printf("; %d index probes\n", res.Probes)
	return nil
}

// localQuery builds the datalog query for local execution: the pattern
// flags become a single clause with fresh variables in the open
// positions — the unified-API point that a pattern IS a one-clause
// query.
func localQuery(patternMode bool, entity, attr, value, class, text string) (datalog.Query, error) {
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

func httpClient() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

// queryServerPattern drives GET /v1/query and renders the fact list.
func queryServerPattern(base string, p store.Pattern, limit int, jsonOut bool) error {
	params := url.Values{}
	for k, v := range map[string]string{"entity": p.Entity, "attr": p.Attr, "value": p.Value, "class": p.Class} {
		if v != "" {
			params.Set(k, v)
		}
	}
	if limit > 0 {
		params.Set("limit", fmt.Sprint(limit))
	}
	body, err := doRequest(func() (*http.Response, error) {
		return httpClient().Get(strings.TrimRight(base, "/") + "/v1/query?" + params.Encode())
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(body)
	}
	facts, _ := body["facts"].([]any)
	rows := make([][]string, 0, len(facts))
	for _, f := range facts {
		m, _ := f.(map[string]any)
		rows = append(rows, []string{
			str(m["entity"]), str(m["attr"]), str(m["value"]), fmt.Sprintf("%.2f", num(m["confidence"])),
		})
	}
	printRows([]string{"entity", "attr", "value", "confidence"}, rows)
	fmt.Printf("%d facts (total %v)\n", len(rows), body["total"])
	return nil
}

// queryServerDatalog drives POST /v1/datalog and renders the bindings.
func queryServerDatalog(base, text string, sel []string, limit, parallel int, explain, jsonOut bool) error {
	req := map[string]any{"query": text}
	if len(sel) > 0 {
		req["select"] = sel
	}
	if limit > 0 {
		req["limit"] = limit
	}
	if parallel > 1 {
		req["parallelism"] = parallel
	}
	if explain {
		req["explain"] = true
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	body, err := doRequest(func() (*http.Response, error) {
		return httpClient().Post(strings.TrimRight(base, "/")+"/v1/datalog", "application/json", bytes.NewReader(payload))
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return printJSON(body)
	}
	if plan, ok := body["plan"].([]any); ok {
		fmt.Fprintf(os.Stderr, "plan for %v:\n", body["query"])
		for _, step := range plan {
			fmt.Fprintf(os.Stderr, "%s\n", str(step))
		}
	}
	varsAny, _ := body["vars"].([]any)
	vars := make([]string, 0, len(varsAny))
	for _, v := range varsAny {
		vars = append(vars, str(v))
	}
	bindings, _ := body["bindings"].([]any)
	rows := make([][]string, 0, len(bindings))
	for _, b := range bindings {
		m, _ := b.(map[string]any)
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = str(m[v])
		}
		rows = append(rows, row)
	}
	printRows(varHeaders(vars), rows)
	fmt.Printf("%d rows (total %v", len(rows), body["total"])
	if t, _ := body["truncated"].(bool); t {
		fmt.Printf(", truncated")
	}
	fmt.Println(")")
	return nil
}

// doRequest runs one API call and decodes the JSON body, turning the
// error envelope of a non-2xx response into a CLI error.
func doRequest(do func() (*http.Response, error)) (map[string]any, error) {
	resp, err := do()
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("server returned %s with a non-JSON body: %.200s", resp.Status, raw)
	}
	if resp.StatusCode != http.StatusOK {
		if msg, ok := body["error"].(string); ok {
			return nil, fmt.Errorf("server: %s (status %d)", msg, resp.StatusCode)
		}
		return nil, fmt.Errorf("server returned %s: %.200s", resp.Status, raw)
	}
	return body, nil
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

func str(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
