package core_test

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/fusion"
	"akb/internal/store"
)

// keyedDecision is a fusion decision as Result.Facts used to be handed it:
// under its item's key in a map, its beliefs in a map by value key — the
// claimed values' first, an implied truth's written over them.
type keyedDecision struct {
	item   *fusion.Item
	truths []string // Truths' lexical forms
	keys   []string // and their value keys
	belief map[string]float64
}

func keyedDecisions(fused *fusion.Result) map[string]*keyedDecision {
	out := make(map[string]*keyedDecision, len(fused.Decisions))
	for i := range fused.Decisions {
		d := &fused.Decisions[i]
		kd := &keyedDecision{item: d.Item, belief: map[string]float64{}}
		for k, vc := range d.Item.Values {
			kd.belief[vc.Value.Key()] = d.Belief[k]
		}
		for _, imp := range d.Implied {
			kd.belief[imp.Value.Key()] = imp.Belief
		}
		for _, tr := range d.Truths {
			kd.truths = append(kd.truths, tr.Value)
			kd.keys = append(kd.keys, tr.Key())
		}
		out[d.Item.Key()] = kd
	}
	return out
}

// referenceResultFacts is Result.Facts as it was: the decisions walked in map
// order, entity and class resolved for every one of them, the belief read
// back under the truth's built key, the support looked up among the values
// of the item the decision was made over (so an implied generalisation the
// fold gave to a descendant is served with no source), the slice grown from
// nil.
func referenceResultFacts(res *core.Result) []store.Fact {
	var facts []store.Fact
	names := extract.Names{}
	for _, d := range keyedDecisions(res.Fused()) {
		entity := names.Of(d.item.Subject)
		attr := names.Of(d.item.Predicate)
		class := ""
		if e, ok := res.World.Entity(entity); ok {
			class = e.Class
		}
		for k, value := range d.truths {
			sources := 0
			for _, vc := range d.item.Values {
				if vc.Value.Key() == d.keys[k] && vc.Value.Value == value {
					sources = vc.SupportCount()
				}
			}
			facts = append(facts, store.Fact{
				Entity:     entity,
				Class:      class,
				Attr:       attr,
				Value:      value,
				Confidence: d.belief[d.keys[k]],
				Sources:    sources,
				Ancestors:  res.World.Hier.Ancestors(value),
			})
		}
	}
	return facts
}

// pipelineRuns are the runs the reference tests read: seeds 1–3, the default
// pipeline and the one with every optional stage.
func pipelineRuns(t *testing.T, each func(label string, res *core.Result)) {
	t.Helper()
	every := []core.Option{core.WithListPages(), core.WithTemporal(), core.WithEntityDiscovery(), core.WithAlignment()}
	for seed := int64(1); seed <= 3; seed++ {
		for name, opts := range map[string][]core.Option{"default": nil, "every stage": every} {
			res, err := core.New(append([]core.Option{core.WithSeed(seed)}, opts...)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			each(fmt.Sprintf("seed %d %s", seed, name), res)
		}
	}
}

// sortFacts puts facts in the store's canonical order: by entity,
// attribute, value and class.
func sortFacts(fs []store.Fact) {
	slices.SortFunc(fs, func(a, b store.Fact) int {
		return cmp.Or(strings.Compare(a.Entity, b.Entity), strings.Compare(a.Attr, b.Attr),
			strings.Compare(a.Value, b.Value), strings.Compare(a.Class, b.Class))
	})
}

// TestResultFactsMatchReference: read off by position, the facts are the
// ones the string-keyed walk found — as many as the result has truths, in a
// slice of exactly that size, and the same slice in the same order when
// asked twice — equal in every field but one: an implied generalisation the
// fold gave to a descendant, which the walk served with Sources 0 because
// it looked the value up in the folded item, reports the sources that
// claimed it. Every fact of these KBs has a source.
func TestResultFactsMatchReference(t *testing.T) {
	pipelineRuns(t, func(label string, res *core.Result) {
		got := res.Facts()
		if len(got) != res.Fused().NumTruths() || cap(got) != len(got) {
			t.Errorf("%s: %d facts in a slice of %d for %d truths", label, len(got), cap(got), res.Fused().NumTruths())
		}
		if again := res.Facts(); !reflect.DeepEqual(got, again) {
			t.Errorf("%s: a second call returns other facts or another order", label)
		}
		// The facts come in the decisions' order, a decision's in its truths'.
		k := 0
		for i := range res.Fused().Decisions {
			d := &res.Fused().Decisions[i]
			for _, tr := range d.Truths {
				if k < len(got) && (got[k].Value != tr.Value || got[k].Attr != extract.AttrFromIRI(d.Item.Predicate)) {
					t.Fatalf("%s: fact %d is %+v, truth %d is %v of %s", label, k, got[k], k, tr, d.Item.Key())
				}
				k++
			}
		}
		want := referenceResultFacts(res)
		sortFacts(want)
		sorted := append([]store.Fact(nil), got...)
		sortFacts(sorted)
		if len(sorted) != len(want) {
			t.Fatalf("%s: %d facts, want %d", label, len(sorted), len(want))
		}
		implied := 0
		for i := range want {
			if want[i].Sources == 0 {
				implied++
				if len(res.World.Hier.Children(want[i].Value)) == 0 {
					t.Errorf("%s: the reference serves %+v without a source, and it generalises nothing", label, want[i])
				}
				want[i].Sources = sorted[i].Sources
			}
			if !reflect.DeepEqual(sorted[i], want[i]) {
				t.Fatalf("%s: fact %d is %+v, want %+v", label, i, sorted[i], want[i])
			}
			if sorted[i].Sources < 1 {
				t.Errorf("%s: %+v has no source", label, sorted[i])
			}
		}
		if implied == 0 {
			t.Errorf("%s: no implied generalisation among %d facts", label, len(want))
		}
	})
}
