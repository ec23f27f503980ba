package serve

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readSideDeps is every in-repo package the read side links, per package:
// a served KB is the product of a build, so nothing here may reach an
// extractor, fusion or a corpus generator.
var readSideDeps = map[string][]string{
	"akb/internal/serve":   {"datalog", "store", "obs", "mapreduce", "resilience"},
	"akb/internal/datalog": {"store", "obs", "mapreduce", "resilience"},
	"akb/internal/store":   {"obs", "mapreduce", "resilience"},
}

// TestReadSideDependencies walks the non-test imports of the read side's
// packages from their source files and holds the in-repo closure of each to
// its list. A package that joins the closure is named with the package that
// imports it.
func TestReadSideDependencies(t *testing.T) {
	const module = "akb/"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for pkg, want := range readSideDeps {
		importer := map[string]string{} // each package reached, and what first imported it
		queue := []string{pkg}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			// ImportDir reads the directory's files; Import would resolve
			// the module path by running the go command.
			bp, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(p, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			for _, imp := range bp.Imports {
				if _, seen := importer[imp]; seen || imp == pkg || !strings.HasPrefix(imp, module) {
					continue
				}
				importer[imp] = p
				queue = append(queue, imp)
			}
		}
		var deps []string
		for dep := range importer {
			deps = append(deps, dep)
		}
		slices.Sort(deps)
		for _, dep := range deps {
			if !slices.Contains(want, strings.TrimPrefix(dep, module+"internal/")) {
				t.Errorf("%s links %s, imported by %s", pkg, dep, importer[dep])
			}
		}
		for _, w := range want {
			if _, ok := importer[module+"internal/"+w]; !ok {
				t.Errorf("%s no longer links akb/internal/%s: take it off the list", pkg, w)
			}
		}
	}
}
