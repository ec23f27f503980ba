package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"akb/internal/datalog"
	"akb/internal/obs"
	"akb/internal/store"
)

// The reference: the shapes the data routes marshalled through
// encoding/json before the encoders in encode.go replaced them. The
// encoders must write, byte for byte, what json.Marshal writes for these.

// valueOut is one accepted value in an entity or triples response.
type valueOut struct {
	Value      string   `json:"value"`
	Confidence float64  `json:"confidence"`
	Sources    int      `json:"sources,omitempty"`
	Ancestors  []string `json:"ancestors,omitempty"`
}

func toValueOut(f store.Fact) valueOut {
	return valueOut{Value: f.Value, Confidence: f.Confidence, Sources: f.Sources, Ancestors: f.Ancestors}
}

func refEntity(id string, facts []store.Fact) ([]byte, error) {
	attrs := make(map[string][]valueOut)
	for _, f := range facts {
		attrs[f.Attr] = append(attrs[f.Attr], toValueOut(f))
	}
	return json.Marshal(struct {
		Entity     string                `json:"entity"`
		Class      string                `json:"class,omitempty"`
		Facts      int                   `json:"facts"`
		Attributes map[string][]valueOut `json:"attributes"`
	}{id, facts[0].Class, len(facts), attrs})
}

func refTriples(entity, attr string, facts []store.Fact) ([]byte, error) {
	values := make([]valueOut, 0, len(facts))
	for _, f := range facts {
		values = append(values, toValueOut(f))
	}
	return json.Marshal(struct {
		Entity string     `json:"entity"`
		Attr   string     `json:"attr"`
		Values []valueOut `json:"values"`
	}{entity, attr, values})
}

func refQuery(generation uint64, total int, facts []store.Fact) ([]byte, error) {
	if facts == nil {
		facts = []store.Fact{}
	}
	return json.Marshal(struct {
		Generation uint64       `json:"generation"`
		Count      int          `json:"count"`
		Total      int          `json:"total"`
		Truncated  bool         `json:"truncated,omitempty"`
		Facts      []store.Fact `json:"facts"`
	}{generation, len(facts), total, total > len(facts), facts})
}

func refDatalog(a datalogAnswer) ([]byte, error) {
	rows := a.res.Rows()
	out := struct {
		Generation uint64              `json:"generation"`
		Query      string              `json:"query"`
		Plan       []string            `json:"plan,omitempty"`
		Vars       []string            `json:"vars"`
		Count      int                 `json:"count"`
		Total      int                 `json:"total"`
		Truncated  bool                `json:"truncated,omitempty"`
		Bindings   []map[string]string `json:"bindings"`
	}{a.generation, a.query, a.plan, a.res.Vars, len(rows), a.res.Total, a.res.Truncated, make([]map[string]string, 0, len(rows))}
	if out.Vars == nil {
		out.Vars = []string{}
	}
	for _, row := range rows {
		b := make(map[string]string, len(a.res.Vars))
		for i, v := range a.res.Vars {
			b[v] = row[i]
		}
		out.Bindings = append(out.Bindings, b)
	}
	return json.Marshal(out)
}

// pageOf is the executor's result of the rows as the server is handed it: a
// store is built of the rows' strings, and the page holds them as that
// store's string IDs, spelled through its Names.
func pageOf(t testing.TB, vars []string, rows [][]string, total int, truncated bool) *datalog.Result {
	t.Helper()
	var facts []store.Fact
	for _, row := range rows {
		for _, s := range row {
			facts = append(facts, store.Fact{Entity: "e", Attr: "a", Value: s})
		}
	}
	c := store.New(facts).Select(store.Pattern{})
	res := &datalog.Result{Vars: vars, Count: len(rows), Names: c.Names(), Total: total, Truncated: truncated}
	for _, row := range rows {
		for _, s := range row {
			id, ok := res.Names.ID(s)
			if !ok {
				t.Fatalf("the store of the page's strings lacks %q", s)
			}
			res.IDs = append(res.IDs, id)
		}
	}
	return res
}

// encodeNames is the differential test's name pool: the adversarial names
// of store/differential_test.go (keys that collide, NULs, prefixes) plus one
// of every kind of byte the JSON writer treats specially.
var encodeNames = []string{
	"a", "ab", "abc", "a\x00b", "a\x00", "\x00", "b", "b\x00c", "c",
	`q"uo\te`, "new\nline", "é", "Film 1", "Film 12",
	"", "<tag> & </tag>", "tab\tcr\rbs\bff\f", "\x01\x1f\x7f", "bad\xffutf8", "cut\xe2\x82",
	"sep\u2028\u2029", "\ufffd", "😀 astral", "\xf0\x9f\x98", "\xc0\xaf", "\xed\xa0\x80",
}

var encodeFloats = []float64{
	0, 1, 1e-7, 1e-6, 1e21, 5e-324, -0.25, 0.12345678901234568,
	math.Copysign(0, -1), 999999999999999868928, 1e-5, 0.000001234, 1e20, 123456789.125, math.MaxFloat64, -1e-9, 100,
}

// encodeFacts generates one fact set: few names so attributes repeat,
// every float corner, sources 0, empty classes, nil and empty ancestors.
func encodeFacts(r *rand.Rand) []store.Fact {
	name := func() string { return encodeNames[r.Intn(len(encodeNames))] }
	facts := make([]store.Fact, r.Intn(12))
	for i := range facts {
		f := store.Fact{Entity: name(), Attr: name(), Value: name(),
			Confidence: encodeFloats[r.Intn(len(encodeFloats))], Sources: r.Intn(4) - 1}
		if r.Intn(3) > 0 {
			f.Class = name()
		}
		switch r.Intn(4) {
		case 0:
			f.Ancestors = []string{}
		case 1, 2:
			for n := r.Intn(4); n > 0; n-- {
				f.Ancestors = append(f.Ancestors, name())
			}
		}
		facts[i] = f
	}
	return facts
}

func encodeAnswer(t testing.TB, r *rand.Rand) datalogAnswer {
	name := func() string { return encodeNames[r.Intn(len(encodeNames))] }
	a := datalogAnswer{generation: uint64(r.Intn(3)) * math.MaxUint32, query: name() + " . " + name()}
	total, truncated := r.Intn(1000), r.Intn(2) == 0
	for n := r.Intn(3); n > 0; n-- {
		a.plan = append(a.plan, name())
	}
	// Variable names: letters, digits, underscores — and repeated, as a
	// select list may repeat them (the same variable, so the same value).
	pool := []string{"x", "y", "f", "v1", "v10", "v2", "_", "A", "a_b"}
	value := map[string]int{}
	var vars []string
	for n := r.Intn(6); n > 0; n-- {
		v := pool[r.Intn(len(pool))]
		if _, ok := value[v]; !ok {
			value[v] = len(value)
		}
		vars = append(vars, v)
	}
	var rows [][]string
	for n := r.Intn(8); n > 0; n-- {
		slots := make([]string, len(value))
		for i := range slots {
			slots[i] = name()
		}
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = slots[value[v]]
		}
		rows = append(rows, row)
	}
	a.res = pageOf(t, vars, rows, total, truncated)
	return a
}

// checkEncoders compares the four encoders with the reference on one input.
func checkEncoders(t *testing.T, where string, facts []store.Fact, a datalogAnswer, id, attr string, total int) {
	t.Helper()
	same := func(shape string, got []byte, gotErr error, want []byte, wantErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s %s: error %v, encoding/json's %v", where, shape, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s %s:\n got %s\nwant %s", where, shape, got, want)
		}
	}
	if len(facts) > 0 {
		got, gotErr := encodeEntity(id, facts)
		want, wantErr := refEntity(id, facts)
		same("entity", got, gotErr, want, wantErr)
	}
	got, gotErr := encodeTriples(id, attr, facts)
	want, wantErr := refTriples(id, attr, facts)
	same("triples", got, gotErr, want, wantErr)

	got, gotErr = encodeQuery(a.generation, len(facts)+total, facts)
	want, wantErr = refQuery(a.generation, len(facts)+total, facts)
	same("query", got, gotErr, want, wantErr)

	want, wantErr = refDatalog(a)
	body := encodeDatalog(nil, a)
	same("datalog", body, nil, want, wantErr)
	if len(body) != cap(body) {
		t.Fatalf("%s datalog: a body of %d bytes in a buffer of %d: the size is not exact", where, len(body), cap(body))
	}
	// A reused buffer: larger than the body, and holding another's bytes.
	used := bytes.Repeat([]byte{'#'}, 2*len(body)+64)
	same("datalog into a used buffer", encodeDatalog(used, a), nil, want, wantErr)
}

// TestEncodersMatchEncodingJSON is the differential test of the four
// response encoders: on generated fact sets and datalog answers drawn from
// names that need every escape and floats at every formatting corner, the
// bytes equal json.Marshal of the reference shapes. Facts come unsorted, so
// the entity encoder's regrouping is compared with the map's too.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	sets := 4000
	if testing.Short() {
		sets = 500
	}
	for seed := 0; seed < sets; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		facts := encodeFacts(r)
		if seed%5 == 0 {
			// Canonical, as the store hands them over: it refuses a negative
			// source count at its door.
			facts = store.New(slices.DeleteFunc(facts, func(f store.Fact) bool { return f.Sources < 0 })).Facts()
		}
		if seed%97 == 0 {
			facts = nil
		}
		checkEncoders(t, fmt.Sprintf("seed %d", seed), facts, encodeAnswer(t, r),
			encodeNames[r.Intn(len(encodeNames))], encodeNames[r.Intn(len(encodeNames))], r.Intn(2)*r.Intn(50))
	}
	// The shapes' own corners: no rows at all, nil against empty vars, a
	// ground query (no variables, one empty binding per match), and a page of
	// more values than the encoder marks as needing no escape.
	var long [][]string
	for i := 0; i < 1500; i++ {
		n := func(k int) string { return encodeNames[(i+k)%len(encodeNames)] }
		long = append(long, []string{n(0), n(7), n(13)})
	}
	for i, a := range []datalogAnswer{
		{res: pageOf(t, []string{"a", "b", "c"}, long, 2000, true)},
		{res: &datalog.Result{}},
		{res: pageOf(t, []string{}, [][]string{}, 0, false)},
		{query: "a b c", res: pageOf(t, nil, [][]string{{}, {}}, 2, false)},
		{res: pageOf(t, []string{"v", "e", "v"}, [][]string{{"1", "2", "1"}}, 1, false), plan: []string{"1. [scan, est 1] <&>"}},
	} {
		checkEncoders(t, fmt.Sprintf("corner %d", i), nil, a, "", "", 0)
	}
}

// FuzzAppendJSONMatchesEncodingJSON lets the fuzzer pick the strings and
// the float: whatever bytes they hold, every encoder agrees with
// encoding/json, including on refusing NaN and the infinities.
func FuzzAppendJSONMatchesEncodingJSON(f *testing.F) {
	for _, s := range encodeNames {
		f.Add(s, "attr", s, 0.5)
	}
	f.Add("e", "<a>", "v\u2028", 1e-7)
	f.Add("e", "a", "v", math.NaN())
	f.Add("e", "a", "v", math.Inf(-1))
	f.Add("\xff", "\x00", "\"\\", 1e21)
	f.Fuzz(func(t *testing.T, entity, attr, value string, conf float64) {
		facts := []store.Fact{
			{Entity: entity, Class: value, Attr: attr, Value: value, Confidence: conf, Sources: len(attr), Ancestors: []string{entity, attr}},
			{Entity: entity, Attr: attr + "x", Value: attr, Confidence: -conf},
			{Entity: entity, Attr: attr, Value: entity, Confidence: conf * 1e-7, Ancestors: []string{}},
		}
		a := datalogAnswer{query: value, plan: []string{attr, entity}, res: pageOf(t, []string{"b", "a", "b"},
			[][]string{{entity, attr, entity}, {value, value, value}}, len(value), len(value)%2 == 1)}
		checkEncoders(t, "fuzz", facts, a, entity, attr, len(entity)%3)

		if got, want := appendString(nil, value), mustMarshal(t, value); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", value, got, want)
		}
		if got, want := quotedLen(value), len(mustMarshal(t, value)); got != want {
			t.Fatalf("quotedLen(%q) = %d, encoding/json writes %d bytes", value, got, want)
		}
		got, gotErr := appendFloat(nil, conf)
		want, wantErr := json.Marshal(conf)
		if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s (%v), encoding/json writes %s (%v)", conf, got, gotErr, want, wantErr)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEncoderAllocations bounds the heap cost of a body: the buffer and
// nothing that grows with the rows. A datalog body is sized exactly before it
// is written, so it costs its buffer alone (8 allocations when its rows were
// strings), and nothing in a buffer that has room, as a reused one has.
func TestEncoderAllocations(t *testing.T) {
	for _, rows := range []int{1, 50, 1000} {
		facts := make([]store.Fact, rows)
		for i := range facts {
			facts[i] = store.Fact{Entity: "Film 12", Class: "Film", Attr: fmt.Sprintf("attr %04d", i/2), Value: "Adelaide",
				Confidence: 0.875, Sources: 3, Ancestors: []string{"South Australia", "Australia"}}
		}
		var page [][]string
		for i := 0; i < rows; i++ {
			page = append(page, []string{"Film 12", "Michael Curtiz", "1942"})
		}
		a := datalogAnswer{query: `?f:Film director ?d . ?f "release year" ?y`,
			res: pageOf(t, []string{"f", "d", "y"}, page, rows, false)}
		reused := encodeDatalog(nil, a)
		for _, tc := range []struct {
			shape string
			max   float64
			run   func()
		}{
			{"entity", 3, func() { encodeEntity("Film 12", facts) }},
			{"triples", 3, func() { encodeTriples("Film 12", "attr 0000", facts) }},
			{"query", 3, func() { encodeQuery(1, rows, facts) }},
			{"datalog", 1, func() { encodeDatalog(nil, a) }},
			{"datalog into a reused buffer", 0, func() { reused = encodeDatalog(reused, a) }},
		} {
			if got := testing.AllocsPerRun(20, tc.run); got > tc.max {
				t.Errorf("%s body of %d rows: %.0f allocations, want at most %.0f", tc.shape, rows, got, tc.max)
			}
		}
	}
}

// TestNonFiniteConfidenceIsNeverServed: a confidence JSON cannot express
// used to reach the data routes — a store built straight from such a fact
// answered every request that touched it with a 500. It is refused at the
// store's door now: building the store panics, and a snapshot that carries
// one behind a valid checksum fails the reload, so the serving generation
// keeps answering, with no error counted.
func TestNonFiniteConfidenceIsNeverServed(t *testing.T) {
	for _, conf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "non-finite") {
					t.Errorf("store.New with confidence %v: panic %q, want the refusal", conf, msg)
				}
			}()
			store.New([]store.Fact{{Entity: "e", Class: "C", Attr: "a", Value: "v", Confidence: conf}})
		}()
	}

	// The file: a one-fact snapshot with its confidence overwritten and its
	// trailer signed again.
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.akb"), filepath.Join(dir, "bad.akb")
	if err := store.New([]store.Fact{{Entity: "e", Class: "C", Attr: "a", Value: "v", Confidence: 0.5}}).WriteBinarySnapshotFile(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[:len(raw)-sha256.Size]
	at := bytes.Index(payload, binary.BigEndian.AppendUint64(nil, math.Float64bits(0.5)))
	if at < 0 {
		t.Fatal("no confidence column in the one-fact snapshot")
	}
	binary.BigEndian.PutUint64(payload[at:], math.Float64bits(math.NaN()))
	sum := sha256.Sum256(payload)
	if err := os.WriteFile(bad, append(payload, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	path := good
	cfg.Reloader = func() (store.Querier, error) {
		q, _, err := store.OpenSnapshotFile(path, 0)
		return q, err
	}
	s := New(nil, reg, cfg)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	path = bad
	if _, err := s.Reload(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("reload from a snapshot with a NaN confidence: err = %v, want the refusal", err)
	}
	for _, target := range []string{"/v1/entity/e", "/v1/triples/e/a", "/v1/query?class=C"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"confidence":0.5`) {
			t.Errorf("%s after the refused reload: %d %s, want the serving generation's fact", target, rec.Code, rec.Body)
		}
	}
	if got := reg.Counter("akb_serve_errors_total").Value(); got != 0 {
		t.Errorf("akb_serve_errors_total = %d, want 0", got)
	}
}
