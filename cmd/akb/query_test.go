package main

import (
	"bytes"
	"encoding/json"
	"testing"
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
