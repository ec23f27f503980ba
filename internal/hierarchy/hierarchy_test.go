package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func locationForest() *Forest {
	f := NewForest()
	f.MustAddChain("Adelaide", "South Australia", "Australia")
	f.MustAddChain("Wuhan", "Hubei", "China")
	f.MustAddChain("Melbourne", "Victoria", "Australia")
	return f
}

func TestAddEdgeRejectsSelfAndCycle(t *testing.T) {
	f := NewForest()
	if err := f.AddEdge("a", "a"); err == nil {
		t.Error("self edge accepted")
	}
	if err := f.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdge("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdge("c", "a"); err == nil {
		t.Error("cycle accepted")
	}
}

func TestAddEdgeRejectsSecondParent(t *testing.T) {
	f := NewForest()
	if err := f.AddEdge("x", "p1"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdge("x", "p1"); err != nil {
		t.Error("idempotent re-add rejected")
	}
	if err := f.AddEdge("x", "p2"); err == nil {
		t.Error("second parent accepted")
	}
}

func TestAncestors(t *testing.T) {
	f := locationForest()
	got := f.Ancestors("Adelaide")
	want := []string{"South Australia", "Australia"}
	if len(got) != len(want) {
		t.Fatalf("Ancestors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ancestors[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(f.Ancestors("Australia")) != 0 {
		t.Error("root must have no ancestors")
	}
	if len(f.Ancestors("unknown")) != 0 {
		t.Error("unknown value must have no ancestors")
	}
}

func TestIsAncestorAndCompatible(t *testing.T) {
	f := locationForest()
	if !f.IsAncestor("Australia", "Adelaide") {
		t.Error("Australia should be ancestor of Adelaide")
	}
	if f.IsAncestor("Adelaide", "Australia") {
		t.Error("Adelaide is not ancestor of Australia")
	}
	if f.IsAncestor("China", "Adelaide") {
		t.Error("cross-tree ancestry")
	}
	if !f.Compatible("Wuhan", "China") || !f.Compatible("China", "Wuhan") {
		t.Error("Wuhan/China must be compatible (the paper's example)")
	}
	if f.Compatible("Adelaide", "Melbourne") {
		t.Error("siblings under Australia are not compatible")
	}
	if !f.Compatible("Adelaide", "Adelaide") {
		t.Error("value must be compatible with itself")
	}
}

func TestDepthAndRoot(t *testing.T) {
	f := locationForest()
	cases := []struct {
		v     string
		depth int
		root  string
	}{
		{"Australia", 0, "Australia"},
		{"South Australia", 1, "Australia"},
		{"Adelaide", 2, "Australia"},
		{"unknown", 0, "unknown"},
	}
	for _, c := range cases {
		if d := f.Depth(c.v); d != c.depth {
			t.Errorf("Depth(%q) = %d, want %d", c.v, d, c.depth)
		}
		if r := f.Root(c.v); r != c.root {
			t.Errorf("Root(%q) = %q, want %q", c.v, r, c.root)
		}
	}
	// Depth cache must be invalidated by new edges.
	f2 := NewForest()
	if err := f2.AddEdge("b", "c"); err != nil {
		t.Fatal(err)
	}
	_ = f2.Depth("b")
	if err := f2.AddEdge("c", "d"); err != nil {
		t.Fatal(err)
	}
	if d := f2.Depth("b"); d != 2 {
		t.Errorf("Depth after new edge = %d, want 2", d)
	}
}

func TestClusterCompatible(t *testing.T) {
	f := locationForest()
	groups := f.ClusterCompatible([]string{"Wuhan", "Adelaide", "China", "Australia", "South Australia", "Wuhan"})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(groups), groups)
	}
	// Groups sorted by most general member: Australia group then China group.
	if groups[0][0] != "Australia" {
		t.Errorf("first group head = %q, want Australia", groups[0][0])
	}
	if groups[1][0] != "China" {
		t.Errorf("second group head = %q, want China", groups[1][0])
	}
	if len(groups[1]) != 2 { // China, Wuhan (dedup)
		t.Errorf("China group = %v, want [China Wuhan]", groups[1])
	}
	// Siblings meet in one group through the ancestor that joined it before
	// the second, though it is not compatible with the group's first value.
	if g := f.ClusterCompatible([]string{"Adelaide", "Australia", "Melbourne"}); len(g) != 1 || len(g[0]) != 3 || g[0][0] != "Australia" {
		t.Errorf("ClusterCompatible(Adelaide, Australia, Melbourne) = %v, want one group headed by Australia", g)
	}
}

func TestKnownAndValues(t *testing.T) {
	f := locationForest()
	if !f.Known("Australia") || !f.Known("Adelaide") {
		t.Error("values in forest not Known")
	}
	if f.Known("Mars") {
		t.Error("unknown value reported Known")
	}
	vals := f.Values()
	if len(vals) != 8 {
		t.Errorf("Values = %d, want 8: %v", len(vals), vals)
	}
	if f.Len() != 8 {
		t.Errorf("Len = %d, want 8", f.Len())
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			t.Error("Values not sorted")
		}
	}
}

func TestChildren(t *testing.T) {
	f := locationForest()
	got := f.Children("Australia")
	if len(got) != 2 || got[0] != "South Australia" || got[1] != "Victoria" {
		t.Errorf("Children(Australia) = %v", got)
	}
	if f.Children("Adelaide") != nil {
		t.Error("leaf must have no children")
	}
}

// Property: in a randomly built forest, Compatible is symmetric.
func TestCompatibleSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fo := NewForest()
		names := []string{"a", "b", "c", "d", "e", "g", "h", "i"}
		for i := 1; i < len(names); i++ {
			// Random parent among earlier names keeps it acyclic.
			_ = fo.AddEdge(names[i], names[r.Intn(i)])
		}
		for i := 0; i < 20; i++ {
			x, y := names[r.Intn(len(names))], names[r.Intn(len(names))]
			if fo.Compatible(x, y) != fo.Compatible(y, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
