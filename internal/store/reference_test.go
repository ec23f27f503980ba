package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// The snapshot codec's oracles. The table every store holds is checked
// against brute force: the sorted distinct strings of its facts. Every shard
// the decoder assembles is held to the one NewSharded builds from the same
// facts, and encode∘decode to the identity on facts. The bytes themselves
// are pinned by TestGoldenSnapshotDigest.

// bruteStrings is every string the facts hold in any field, the empty class
// included, sorted and each once: what a store's string table must be.
func bruteStrings(facts []Fact) []string {
	var strs []string
	for _, f := range facts {
		strs = append(append(strs, f.Entity, f.Class, f.Attr, f.Value), f.Ancestors...)
	}
	sort.Strings(strs)
	return slices.Compact(strs)
}

// orderNames is what sorting by an eight-byte prefix can get wrong, added to
// nastyNames' pool: names that agree in their first eight bytes and differ
// after, names that are prefixes of one another across the eighth byte,
// names that zero-pad to the same integer, 0xFF and NUL at and around the
// boundary, multi-byte runes cut by it, and the empty string.
var orderNames = []string{
	"", "Film 123", "Film 1234", "Film 1235", "Film 12345", "Film 123\x00", "Film 12\x00",
	"abcdefgh", "abcdefgh\x00", "abcdefgh\xff", "abcdefg", "abcdefg\xff", "abcdefg\xffz",
	"a\x00\x00", "\x00\x00", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	"ééééé", "éééé", "éééée", "日本語", "日本語の名前", "日本誠",
}

// orderFacts is nastyFacts plus facts spelt from both pools: "" as a value
// and as an ancestor, one string in all four roles of one fact, and a class
// that changes inside an entity's run (twice, and back).
func orderFacts(r *rand.Rand) []Fact {
	facts := nastyFacts(r)
	pool := append(append([]string(nil), nastyNames...), orderNames...)
	name := func() string { return pool[r.Intn(len(pool))] }
	for n := r.Intn(40); n > 0; n-- {
		f := Fact{Entity: name(), Attr: name(), Value: name(), Confidence: r.Float64()*3 - 1, Sources: r.Intn(300)}
		if r.Intn(3) > 0 {
			f.Class = name()
		}
		for _, i := range r.Perm(len(pool))[:r.Intn(4)] {
			if pool[i] != f.Value {
				f.Ancestors = append(f.Ancestors, pool[i])
			}
		}
		facts = append(facts, f)
	}
	all := name()
	facts = append(facts, Fact{Entity: all, Class: all, Attr: all, Value: all, Ancestors: []string{"", all + "x"}})
	e := name()
	for i, class := range []string{"c1", "", "c2", "c1", "c1"} {
		facts = append(facts, Fact{Entity: e, Class: class, Attr: fmt.Sprintf("a%d", i), Value: ""})
	}
	return facts
}

// orderKBs calls check with every store the codec's tests run on: the 150
// nasty KBs (30 under -short), extended by orderFacts, on 1, 3 and 8
// shards, each as NewSharded builds it and as the decoder assembles it from
// the bytes it writes.
func orderKBs(t *testing.T, check func(where string, s *Sharded)) {
	t.Helper()
	kbs := 150
	if testing.Short() {
		kbs = 30
	}
	for seed := 0; seed < kbs; seed++ {
		facts := orderFacts(rand.New(rand.NewSource(int64(seed))))
		for _, n := range []int{1, 3, 8} {
			s := NewSharded(facts, n)
			check(fmt.Sprintf("seed %d, %d shards, built", seed, n), s)
			var buf bytes.Buffer
			if err := s.WriteBinarySnapshot(&buf); err != nil {
				t.Fatalf("seed %d, %d shards: %v", seed, n, err)
			}
			back, err := ReadBinarySnapshot(&buf)
			if err != nil {
				t.Fatalf("seed %d, %d shards: %v", seed, n, err)
			}
			check(fmt.Sprintf("seed %d, %d shards, decoded", seed, n), back)
		}
	}
}

// checkStrings holds the store's string table to brute force — exactly the
// sorted distinct strings of its facts, each found by name at its own ID and
// nothing else found — and every number that leads into it to its own
// string: each run's rank is its entity's ID, and each index's lists are its
// keys in the order the facts first post them, each found by its ID. Every
// other ID of the table, the names this shard's index does not list, finds
// no list. The valueNo column has one entry a value posting — the fact's
// value, then each ancestor — each byValue's list of that name.
func checkStrings(t testing.TB, where string, s *Sharded) {
	t.Helper()
	strs := s.names.strs
	if want := bruteStrings(s.Facts()); !slices.Equal(strs, want) {
		t.Fatalf("%s: string table\n got: %q\nwant: %q", where, strs, want)
	}
	for id, name := range strs {
		if got := s.names.id(name); got != uint32(id) {
			t.Errorf("%s: the name table finds %q at ID %d, not %d", where, name, got, id)
		}
	}
	if got := s.names.id(absentName); got != NoID {
		t.Errorf("%s: the name table finds %q, which no fact holds, at ID %d", where, absentName, got)
	}
	str := func(id uint32) string {
		if int(id) >= len(strs) {
			return fmt.Sprintf("<ID %d of %d>", id, len(strs))
		}
		return strs[id]
	}
	for si, sh := range s.shards {
		if len(sh.rank) != len(sh.runs) {
			t.Fatalf("%s shard %d: %d ranks for %d runs", where, si, len(sh.rank), len(sh.runs))
		}
		facts := shardFacts(sh)
		for ri, run := range sh.runs {
			if name := facts[run.lo].Entity; str(sh.rank[ri]) != name {
				t.Errorf("%s shard %d: run %d (%q) has rank %d, which is %q", where, si, ri, name, sh.rank[ri], str(sh.rank[ri]))
			}
		}
		var keys [3][]string // each index's keys, in the order first posted
		listOf := [3]map[string]int{{}, {}, {}}
		post := func(index int, name string) {
			if _, ok := listOf[index][name]; !ok {
				listOf[index][name] = len(keys[index])
				keys[index] = append(keys[index], name)
			}
		}
		for _, f := range facts {
			post(0, f.Attr)
			post(1, f.Class) // the empty class too: no read looks it up, classNo numbers it
			post(2, f.Value)
			for _, anc := range f.Ancestors {
				post(2, anc)
			}
		}
		for i, index := range []string{"byAttr", "byClass", "byValue"} {
			p := [...]postings{sh.byAttr, sh.byClass, sh.byValue}[i]
			if len(p.ids) != len(keys[i]) {
				t.Fatalf("%s shard %d: %d IDs for %s's %d keys", where, si, len(p.ids), index, len(keys[i]))
			}
			for no, id := range p.ids {
				if str(id) != keys[i][no] {
					t.Errorf("%s shard %d: %s list %d has ID %d, which is %q; the facts post %q", where, si, index, no, id, str(id), keys[i][no])
				}
			}
			for id, name := range strs {
				no, ok := p.list(uint32(id))
				if want, listed := listOf[i][name]; ok != listed || ok && int(no) != want {
					t.Errorf("%s shard %d: %s finds %q (ID %d) at list %d (%v), want %d (%v)", where, si, index, name, id, no, ok, want, listed)
				}
			}
			if no, ok := p.list(NoID); ok {
				t.Errorf("%s shard %d: %s finds NoID at list %d", where, si, index, no)
			}
		}
		var names []string
		for _, f := range facts {
			names = append(append(names, f.Value), f.Ancestors...)
		}
		if len(sh.valueNo) != len(names) {
			t.Fatalf("%s shard %d: %d value numbers for %d value postings", where, si, len(sh.valueNo), len(names))
		}
		for j, name := range names {
			if no, ok := sh.byValue.list(s.names.id(name)); !ok || sh.valueNo[j] != no {
				t.Errorf("%s shard %d: valueNo[%d] = %d, byValue lists %q as %d (%v)", where, si, j, sh.valueNo[j], name, no, ok)
			}
		}
	}
}

// checkRoundTrip holds encode∘decode to the identity on facts: the store
// decoded from what s writes holds s's facts, deeply equal. It returns the
// file and the decoded store.
func checkRoundTrip(t testing.TB, where string, s *Sharded) ([]byte, *Sharded) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteBinarySnapshot(&buf); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	back, err := ReadBinarySnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got, want := back.Facts(), s.Facts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the decoded store holds\n%+v\nthe written one\n%+v", where, got, want)
	}
	return buf.Bytes(), back
}

// checkDecoder holds the store the decoder assembles from file to the one
// NewSharded builds from its facts on as many shards: the same string table
// and name table, and every shard deeply equal — postings tables, offsets,
// arenas and ids, attrNo, classNo, valueNo, first, valueID, conf, sources,
// anc, runs, runOf, rank.
func checkDecoder(t testing.TB, where string, file []byte) {
	t.Helper()
	got, err := ReadBinarySnapshot(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	want := NewSharded(got.Facts(), got.ShardCount())
	if !slices.Equal(got.names.strs, want.names.strs) {
		t.Errorf("%s: the decoded store holds the table\n%q\nNewSharded numbers\n%q", where, got.names.strs, want.names.strs)
	} else if !reflect.DeepEqual(got.names, want.names) {
		t.Errorf("%s: the decoded store's name table differs from NewSharded's over the same strings", where)
	}
	for si, sh := range got.shards {
		want := want.shards[si]
		if reflect.DeepEqual(sh, want) {
			continue
		}
		for field, pair := range map[string][2]any{
			"first": {sh.first, want.first}, "conf": {sh.conf, want.conf}, "sources": {sh.sources, want.sources},
			"anc": {sh.anc, want.anc}, "runs": {sh.runs, want.runs},
			"runOf": {sh.runOf, want.runOf}, "rank": {sh.rank, want.rank}, "byAttr": {sh.byAttr, want.byAttr},
			"attrNo": {sh.attrNo, want.attrNo}, "byClass": {sh.byClass, want.byClass}, "classNo": {sh.classNo, want.classNo}, "byValue": {sh.byValue, want.byValue},
			"valueNo": {sh.valueNo, want.valueNo}, "valueID": {sh.valueID, want.valueID},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("%s shard %d: the decoder assembled %s\n%+v\nNewSharded of its facts has\n%+v", where, si, field, pair[0], pair[1])
			}
		}
	}
}

// TestRejectedSnapshotLeavesNoGoroutine rejects files at every stage of the
// decode — before the first shard, with a shard in the assembler's hands, at
// the end — behind a right trailer and behind a wrong one, and counts the
// goroutines after: the assembler and the checksum's goroutine have been
// waited for on every return.
func TestRejectedSnapshotLeavesNoGoroutine(t *testing.T) {
	payload := binPayload(t, NewSharded(orderFacts(rand.New(rand.NewSource(1))), 4))
	before := runtime.NumGoroutine()
	rejected := 0
	for cut := binHeaderLen; cut < len(payload); cut += 7 {
		// A valid prefix with the rest of the payload zeroed: the header's
		// counts still fit, so the decode gets as far as the cut.
		cutPayload := append([]byte(nil), payload[:cut]...)
		cutPayload = append(cutPayload, make([]byte, len(payload)-cut)...)
		unsigned := append(cutPayload[:len(cutPayload):len(cutPayload)], make([]byte, binTrailerLen)...)
		for _, file := range [][]byte{signed(cutPayload), unsigned} {
			if _, err := ReadBinarySnapshot(bytes.NewReader(file)); err != nil {
				rejected++
			}
		}
	}
	if _, err := ReadBinarySnapshot(bytes.NewReader(signed(append(payload[:len(payload):len(payload)], 0)))); err == nil {
		t.Error("trailing byte accepted")
	}
	if rejected == 0 {
		t.Fatal("no file was rejected")
	}
	checkGoroutines(t, before, fmt.Sprintf("%d rejected files", rejected))
}

// checkGoroutines fails t if more goroutines run than the before counted
// ahead of what. A goroutine of the codec sends or closes a channel as the
// last thing it does, and one that has still has to be scheduled to exit,
// which on a loaded machine can take a while: the count is given up to a
// deadline to come back. One that never exits is still counted at the end.
func checkGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before %s, %d after", before, what, after)
	}
}

// factsFromBytes spells a KB from a fuzzer's input. The first byte picks the
// shard count; after it every fact is a header byte (class or none, the
// number of ancestors, confidence and sources from its bits) and its names,
// each a length byte (mod 12, so that names meet at the eighth byte) and
// that many raw bytes. A name that runs off the end is cut short.
func factsFromBytes(data []byte) (facts []Fact, shards int) {
	if len(data) == 0 {
		return nil, 1
	}
	shards, data = 1+int(data[0])%9, data[1:]
	name := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0])%12, len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	for len(data) > 0 && len(facts) < 200 {
		h := data[0]
		data = data[1:]
		f := Fact{Entity: name(), Attr: name(), Value: name(), Confidence: float64(int(h)-64) / 64, Sources: int(h >> 3)}
		if h&1 != 0 {
			f.Class = name()
		}
		for n := int(h>>1) & 3; n > 0; n-- {
			f.Ancestors = append(f.Ancestors, name())
		}
		facts = append(facts, f)
	}
	return facts, shards
}

// FuzzCodecRoundTrip holds both directions of the codec to their oracles
// on KBs spelt from the fuzzer's bytes: the built and the decoded store each
// hold the brute-force table, the decoded store holds the built one's facts
// and is NewSharded's of them, and it writes the same file again.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 'E', 1, 'a', 1, 'v', 1, 'C'})
	f.Add([]byte{8, 7, 8, 'F', 'i', 'l', 'm', ' ', '1', '2', '3', 9, 'F', 'i', 'l', 'm', ' ', '1', '2', '3', '4', 0, 1, 0xff, 2, 0, 0, 0,
		6, 8, 'F', 'i', 'l', 'm', ' ', '1', '2', '3', 1, 'a', 9, 'F', 'i', 'l', 'm', ' ', '1', '2', '3', 0, 3, 0xe6, 0x97, 0xa5})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		facts, shards := factsFromBytes(data)
		s := NewSharded(facts, shards)
		checkStrings(t, "built", s)
		file, back := checkRoundTrip(t, "built", s)
		checkDecoder(t, "decoded", file)
		checkStrings(t, "decoded", back)
		if again, _ := checkRoundTrip(t, "decoded", back); !bytes.Equal(again, file) {
			t.Errorf("the decoded store writes a different file:\n got: %x\nwant: %x", again, file)
		}
	})
}
