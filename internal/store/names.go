package store

import (
	"hash/maphash"
	"math"
)

// NoID is above every string ID: it stands for a name the store's table does
// not hold, and for a field a read leaves open (a pattern field nothing looks
// up, a field of Run.Where).
const NoID = math.MaxUint32

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

// id returns the name's ID; NoID when the table does not hold it.
func (t *nameTable) id(name string) uint32 {
	if h, ok := t.find(name); ok {
		return t.slot[h] - 1
	}
	return NoID
}

// Names is a store's string table as a reader sees it: every distinct string
// of the facts under its ID, the number every column and index of the store is
// keyed by and Cursor.IDs and RunCursor.IDs report. A reader that works on
// numbers — the datalog executor — finds its constants here once and turns
// the IDs it keeps back into strings only for its answer. The zero Names holds
// no string.
type Names struct{ t *nameTable }

// ID returns the name's ID, and whether the table holds it.
func (n Names) ID(name string) (uint32, bool) {
	if n.t == nil {
		return NoID, false
	}
	id := n.t.id(name)
	return id, id != NoID
}

// Name returns the string with that ID; the ID must be one of the table's.
func (n Names) Name(id uint32) string { return n.t.strs[id] }

// idOf is id for a pattern field: the empty one is the wildcard, not a name,
// and is not looked up.
func (t *nameTable) idOf(field string) uint32 {
	if field == "" {
		return NoID
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
// once a read however many shards it opens. A field that is empty, or names
// a string the table does not hold, is NoID.
type patternIDs struct{ entity, attr, class, value uint32 }

func (t *nameTable) resolve(p Pattern) patternIDs {
	return patternIDs{t.idOf(p.Entity), t.idOf(p.Attr), t.idOf(p.Class), t.idOf(p.Value)}
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
