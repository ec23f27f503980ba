package store

import (
	"hash/maphash"
	"math"
)

// noID is above every string ID: it stands for a name the store's table does
// not hold, and for a pattern field nothing looks up.
const noID = math.MaxUint32

// nameSeed is the one seed every name table hashes with, so that two stores
// of the same strings hold the same table: a decoded store is deeply equal to
// NewSharded's of its facts.
var nameSeed = maphash.MakeSeed()

// nameTable is the store's string table both ways. strs, sorted and each
// string once, is ID → name; slot, open-addressed over the names' hashes, is
// name → ID. A read finds its pattern's names here once, at the store, and
// every index below is keyed by the IDs.
type nameTable struct {
	strs []string
	slot []uint32 // ID + 1; 0 is an empty slot
}

// tableSize is the slots an open-addressed table of n keys is made with: a
// power of two at least twice n, so at most half of them are taken and a
// probe ends within a few.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// newNameTable indexes a table of distinct strings, each under its position.
func newNameTable(strs []string) *nameTable {
	t := &nameTable{strs: strs}
	t.rehash(tableSize(len(strs)))
	return t
}

// rehash lays the slots out afresh, size of them, inserting the strings in ID
// order: the layout is a function of the strings alone.
func (t *nameTable) rehash(size int) {
	t.slot = make([]uint32, size)
	mask := uint64(size - 1)
	for id, name := range t.strs {
		h := maphash.String(nameSeed, name) & mask
		for t.slot[h] != 0 {
			h = (h + 1) & mask
		}
		t.slot[h] = uint32(id + 1)
	}
}

// find returns the slot that holds name's ID, or the empty slot where it
// would go.
func (t *nameTable) find(name string) (uint64, bool) {
	mask := uint64(len(t.slot) - 1)
	for h := maphash.String(nameSeed, name) & mask; ; h = (h + 1) & mask {
		id := t.slot[h]
		if id == 0 {
			return h, false
		}
		if t.strs[id-1] == name {
			return h, true
		}
	}
}

// id returns the name's ID; noID when the table does not hold it.
func (t *nameTable) id(name string) uint32 {
	if h, ok := t.find(name); ok {
		return t.slot[h] - 1
	}
	return noID
}

// idOf is id for a pattern field: the empty one is the wildcard, not a name,
// and is not looked up.
func (t *nameTable) idOf(field string) uint32 {
	if field == "" {
		return noID
	}
	return t.id(field)
}

// add gives name the next ID unless the table holds it already, growing the
// slots as they fill: a set of strings in the order first seen.
func (t *nameTable) add(name string) {
	if 2*(len(t.strs)+1) > len(t.slot) {
		t.rehash(tableSize(len(t.strs) + 1))
	}
	if h, ok := t.find(name); !ok {
		t.strs = append(t.strs, name)
		t.slot[h] = uint32(len(t.strs))
	}
}

// patternIDs is a pattern's names as IDs in the store's table, looked up
// once a read however many shards it opens. A field that is empty, or that
// nothing reads by number — class and value where the pattern names an
// entity, whose run is read and filtered by string — is noID.
type patternIDs struct{ entity, attr, class, value uint32 }

func (t *nameTable) resolve(p Pattern) patternIDs {
	k := patternIDs{t.idOf(p.Entity), t.idOf(p.Attr), noID, noID}
	if p.Entity == "" {
		k.class, k.value = t.idOf(p.Class), t.idOf(p.Value)
	}
	return k
}

// distinctStrings is every string of canonical facts — entity, attribute,
// class (the empty one too), value, ancestors — each once, in the order first
// seen: one shard's share of NewSharded's table.
func distinctStrings(facts []Fact) []string {
	var t nameTable
	for i := range facts {
		f := &facts[i]
		if i == 0 || f.Entity != facts[i-1].Entity {
			t.add(f.Entity)
		}
		t.add(f.Attr)
		t.add(f.Class)
		t.add(f.Value)
		for _, anc := range f.Ancestors {
			t.add(anc)
		}
	}
	return t.strs
}
