package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A backticked span that starts with a source directory of the repo.
	docPath = regexp.MustCompile("`((?:internal|cmd|bench|examples)/[^`\\s]*)")
	// `akb <command>` as a shell would see it: after a space, a slash or
	// the start of the line.
	docCommand = regexp.MustCompile(`(?:^|[\s/])akb\s+([a-z][a-z0-9-]*)(?:\s+([a-z][a-z0-9-]*))?`)
)

// TestDocsNameLiveCode keeps the documents from naming code that is gone:
// every backticked internal/, cmd/, bench/ or examples/ path in them
// exists, every `akb <word>` inside a fenced block is a registered
// command, and every `akb exp <word>` a row of experimentTable.
func TestDocsNameLiveCode(t *testing.T) {
	root := filepath.Join("..", "..")
	cmds := map[string]bool{}
	for _, c := range commands() {
		cmds[c.name] = true
	}
	exps := map[string]bool{"all": true}
	for _, e := range experimentTable {
		exps[e.name] = true
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "API.md", "PERF.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
					switch {
					case !cmds[m[1]]:
						t.Errorf("%s:%d: `akb %s` is not a command", doc, n+1, m[1])
					case m[1] == "exp" && m[2] != "" && !exps[m[2]]:
						t.Errorf("%s:%d: `akb exp %s` is not an experiment", doc, n+1, m[2])
					}
				}
				continue
			}
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				// "internal/serve/encode.go:12" and "cmd/akb/exp.go," name the file.
				path := strings.TrimRight(strings.SplitN(m[1], ":", 2)[0], ".,;)")
				if hits, _ := filepath.Glob(filepath.Join(root, path)); len(hits) == 0 {
					t.Errorf("%s:%d: `%s` does not exist", doc, n+1, path)
				}
			}
		}
	}
}
