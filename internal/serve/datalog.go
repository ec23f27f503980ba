package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"akb/internal/datalog"
	"akb/internal/obs"
)

// maxDatalogBody bounds the /v1/datalog request body. Queries are a few
// hundred bytes of text; a megabyte is already absurd.
const maxDatalogBody = 1 << 20

// maxDatalogParallelism bounds the per-request worker count a client may
// ask for. Results are identical at any value; only resource use varies.
const maxDatalogParallelism = 16

// statusClientClosedRequest is nginx's 499: the client has gone, no server error.
const statusClientClosedRequest = 499

// datalogRequest is the POST /v1/datalog body. Exactly one of Query
// (the full surface grammar, clauses separated by '.' or newlines) and
// Clauses (one clause per element) carries the conjunction.
type datalogRequest struct {
	Query       string   `json:"query,omitempty"`
	Clauses     []string `json:"clauses,omitempty"`
	Select      []string `json:"select,omitempty"`
	Limit       int      `json:"limit,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Explain     bool     `json:"explain,omitempty"`
}

// handleDatalog answers conjunctive queries over the serving generation.
// The engine streams bindings off the same querier every other route
// reads, so results are consistent with /v1/query under hot reload and
// identical across flat and sharded layouts.
func (s *Server) handleDatalog(g *generation, r *http.Request) routeResult {
	// The route is registered non-cacheable (URL-keyed caching would be
	// wrong for POST bodies), so jsonRoute's g==nil 503 does not cover
	// it; guard here so a pre-first-snapshot query gets the same 503
	// envelope every other data route returns instead of a panic-500.
	if g == nil {
		return errRes(http.StatusServiceUnavailable, "no store loaded yet (state %s)", s.Health())
	}
	var req datalogRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxDatalogBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return errRes(http.StatusBadRequest, "invalid request body: %v", err)
	}
	if dec.More() {
		return errRes(http.StatusBadRequest, "invalid request body: trailing data after the JSON object")
	}

	text := req.Query
	switch {
	case text != "" && len(req.Clauses) > 0:
		return errRes(http.StatusBadRequest, "send either query or clauses, not both")
	case text == "" && len(req.Clauses) == 0:
		return errRes(http.StatusBadRequest, "one of query or clauses is required")
	case len(req.Clauses) > 0:
		text = strings.Join(req.Clauses, "\n")
	}
	q, err := datalog.Parse(text)
	if err != nil {
		return errRes(http.StatusBadRequest, "%v", err)
	}
	if req.Limit < 0 {
		return errRes(http.StatusBadRequest, "invalid limit %d", req.Limit)
	}
	if req.Parallelism < 0 || req.Parallelism > maxDatalogParallelism {
		return errRes(http.StatusBadRequest, "invalid parallelism %d (0..%d)", req.Parallelism, maxDatalogParallelism)
	}
	q.Select = req.Select
	// The response cap mirrors /v1/query: the server ceiling applies
	// unless the client asks for less; Total stays exact either way.
	q.Limit = s.cfg.MaxResults
	if req.Limit > 0 && req.Limit < q.Limit {
		q.Limit = req.Limit
	}

	plan, err := datalog.PlanQuery(q, g.q)
	if err != nil {
		return errRes(http.StatusBadRequest, "%v", err)
	}

	ctx, span := obs.StartSpan(r.Context(), "datalog")
	defer span.End()
	rendered := q.String() // once: the span's annotation and the answer's "query"
	span.Annotate("query", rendered)
	start := time.Now()
	res, err := datalog.RunPlan(ctx, g.q, q, plan, datalog.Options{Parallelism: req.Parallelism})
	s.m.datalogLatency.Observe(time.Since(start).Seconds())
	s.m.datalogQueries.Inc()
	if err != nil {
		span.RecordError(err)
		if errors.Is(err, ctx.Err()) {
			if !errors.Is(context.Cause(ctx), errTimedOut) { // cancelled, but not by its deadline
				return errRes(statusClientClosedRequest, "query cancelled: %v", err)
			}
			return errRes(http.StatusServiceUnavailable, "query cancelled: %v", err)
		}
		return errRes(http.StatusBadRequest, "%v", err)
	}
	s.m.datalogRows.Add(int64(res.Total))
	s.m.datalogProbes.Add(res.Probes)
	span.AnnotateInt("rows", int64(res.Total))
	span.AnnotateInt("probes", res.Probes)

	// The answer mirrors /v1/query's envelope: generation, count/total/
	// truncated semantics, plus the variable bindings as one object per row.
	out := datalogAnswer{
		generation: g.num,
		query:      rendered,
		vars:       res.Vars,
		rows:       res.Rows,
		total:      res.Total,
		truncated:  res.Truncated,
	}
	if req.Explain {
		out.plan = strings.Split(strings.TrimSuffix(plan.String(), "\n"), "\n")
	}
	return routeResult{http.StatusOK, encodeDatalog(out)}
}
