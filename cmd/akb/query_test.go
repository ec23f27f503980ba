package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"akb/internal/obs"
	"akb/internal/serve"
)

// TestQueryJSONEmptyAnswer: a local query that matches nothing prints
// "rows": [] at every parallelism, as /v1/datalog prints "bindings": [],
// never null.
func TestQueryJSONEmptyAnswer(t *testing.T) {
	path := testSnapshotFile(t)
	for _, args := range [][]string{
		{"-entity", "No Such Entity"},
		{"?f director ?d . ?f genre ?g"},
	} {
		for _, par := range []string{"1", "2"} {
			out, err := captureStdout(t, func() error {
				return cmdQuery(append([]string{"-json", "-snapshot", path, "-parallel", par}, args...))
			})
			if err != nil {
				t.Fatalf("%v -parallel %s: %v", args, par, err)
			}
			var body struct {
				Rows  *[][]string `json:"rows"`
				Count int         `json:"count"`
				Total int         `json:"total"`
			}
			if err := json.Unmarshal(out, &body); err != nil {
				t.Fatalf("%v -parallel %s: %v in %s", args, par, err, out)
			}
			if body.Rows == nil || len(*body.Rows) != 0 || body.Count != 0 || body.Total != 0 || !bytes.Contains(out, []byte(`"rows": []`)) {
				t.Errorf("%v -parallel %s: want an empty answer printed as []:\n%s", args, par, out)
			}
		}
	}
}

// TestQueryLocalAndServerPrintTheSame: one snapshot queried in-process and
// through -server over the same store prints the same stdout, as a table
// and as JSON — a pattern, a truncated pattern, a join, a projected join
// and an empty answer.
func TestQueryLocalAndServerPrintTheSame(t *testing.T) {
	path := testSnapshotFile(t)
	st, _, err := openSnapshot(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(st, obs.NewRegistry(), serve.DefaultConfig()).Handler())
	defer ts.Close()

	query := func(backend []string, args ...string) ([]byte, error) {
		return captureStdout(t, func() error { return cmdQuery(append(backend, args...)) })
	}
	local, remote := []string{"-snapshot", path}, []string{"-server", ts.URL}
	for _, args := range [][]string{
		{"-attr", "director", "-limit", "3"},
		{"-class", "Film", "-limit", "1"},
		{"-limit", "5", "?f director ?d . ?f language ?l"},
		{"-limit", "5", "-select", "l,f", "?f director ?d . ?f language ?l"},
		{"-limit", "2", `?f director "No Such Director"`},
	} {
		for _, format := range [][]string{nil, {"-json"}} {
			args := append(format, args...)
			want, err := query(local, args...)
			if err != nil {
				t.Fatalf("local %q: %v", args, err)
			}
			got, err := query(remote, args...)
			if err != nil {
				t.Fatalf("-server %q: %v", args, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%q: -server printed\n%s\nlocal printed\n%s", args, got, want)
			}
		}
	}

	// A class on a constant entity has no surface form: refused on both.
	for _, backend := range [][]string{local, remote} {
		if _, err := query(backend, "-entity", "Casablanca", "-class", "Film"); err == nil || !strings.Contains(err.Error(), "-class") {
			t.Errorf("%q -entity with -class: err = %v, want a usage error", backend, err)
		}
	}
}
