package store_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"akb/internal/core"
	"akb/internal/kb"
	"akb/internal/store"
)

// The tests on KBs that a pipeline run or a ground-truth world builds. They
// are outside package store because core and kb import it: the store is
// built from their facts (core.Result.Facts, kb.World.Facts) and never
// calls them.

// smallPipeline runs a scaled-down end-to-end pipeline for integration
// tests; the result is cached per test binary since multiple tests want it.
var smallPipeline = sync.OnceValues(func() (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.World = kb.WorldConfig{Seed: 1, EntitiesPerClass: 10, AttrsPerEntity: 8}
	cfg.Stream.TotalRecords = 3000
	cfg.Sites.SitesPerClass = 2
	cfg.Sites.PagesPerSite = 5
	cfg.Corpus.DocsPerClass = 5
	return core.New(core.WithConfig(cfg)).Run(context.Background())
})

// TestFromResultAgainstFusion cross-checks the snapshot against the live
// fusion result it came from: every accepted truth appears exactly once
// with its belief, and the indexed store answers the same as a scan.
func TestFromResultAgainstFusion(t *testing.T) {
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(res.Facts())
	if s.Len() == 0 {
		t.Fatal("empty store from live pipeline")
	}
	truths := 0
	for _, d := range res.Fused().Decisions {
		truths += len(d.Truths)
	}
	if s.Len() != truths {
		t.Errorf("store has %d facts, fusion accepted %d truths", s.Len(), truths)
	}
	// Every fact must carry the entity's real class and a confidence.
	for _, f := range s.Facts() {
		if f.Class == "" {
			t.Errorf("fact without class: %+v", f)
		}
		if f.Confidence <= 0 {
			t.Errorf("fact without belief: %+v", f)
		}
	}
	// Index answers must equal the oracle's on live data too.
	for _, class := range s.Classes() {
		q := store.Pattern{Class: class}
		if !reflect.DeepEqual(s.Lookup(q), store.RefSelect(s.Facts(), q)) {
			t.Errorf("Lookup != the oracle for class %q", class)
		}
	}
	ent := s.Facts()[0].Entity
	for _, q := range []store.Pattern{{Entity: ent}, {Entity: ent, Attr: s.Facts()[0].Attr}} {
		if !reflect.DeepEqual(s.Lookup(q), store.RefSelect(s.Facts(), q)) {
			t.Errorf("Lookup != the oracle for %+v", q)
		}
	}
}

// TestIndexReadsATenthOfTheStore is the index-vs-scan criterion in counted
// work: on the default seed-1 pipeline KB held in one shard, every query of
// a representative mix — point lookups, a per-class sweep, a value match
// and a hierarchy-ancestor match — walks a candidate list at most a tenth
// of the store (CountEstimate is the length of the list the cursor walks,
// TestCursorWalksShortestList) and answers exactly what the brute-force
// oracle does.
func TestIndexReadsATenthOfTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short")
	}
	res, err := core.New().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(res.Facts())
	facts := s.Facts()
	anc := slices.IndexFunc(facts, func(f store.Fact) bool { return len(f.Ancestors) > 0 })
	if anc < 0 {
		t.Fatal("no fact with hierarchy ancestors in the default KB")
	}
	ent, attr := facts[0].Entity, facts[0].Attr
	for _, p := range []store.Pattern{
		{Entity: ent},
		{Entity: ent, Attr: attr},
		{Class: s.Classes()[0], Attr: attr},
		{Attr: attr, Value: facts[0].Value},
		{Value: facts[anc].Ancestors[len(facts[anc].Ancestors)-1]},
	} {
		got, want, est := s.Lookup(p), store.RefSelect(facts, p), s.CountEstimate(p)
		if len(got) == 0 || len(got) != len(want) {
			t.Errorf("%+v: Lookup returned %d facts, the oracle %d", p, len(got), len(want))
		}
		if est < len(got) || est*10 > s.Len() {
			t.Errorf("%+v: index walks %d candidates for %d matches in a store of %d, want at most a tenth",
				p, est, len(got), s.Len())
		}
	}
}

// binTestSharded builds the live-pipeline store most binary-codec tests
// round-trip.
func binTestSharded(t *testing.T) *store.Sharded {
	t.Helper()
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	return store.NewSharded(res.Facts(), 4)
}

// TestBinarySnapshotRoundTrip pins the codec's determinism both ways:
// write → read rebuilds an equivalent store, and re-writing that store
// reproduces the original bytes exactly.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	sh := binTestSharded(t)
	var buf bytes.Buffer
	if err := sh.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	got, err := store.ReadBinarySnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardCount() != sh.ShardCount() || got.Len() != sh.Len() || got.EntityCount() != sh.EntityCount() {
		t.Fatalf("reloaded store shape: shards %d/%d facts %d/%d entities %d/%d",
			got.ShardCount(), sh.ShardCount(), got.Len(), sh.Len(), got.EntityCount(), sh.EntityCount())
	}
	if !reflect.DeepEqual(got.Facts(), sh.Facts()) {
		t.Fatal("reloaded facts differ from source")
	}

	var again bytes.Buffer
	if err := got.WriteBinarySnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatalf("write→read→write not byte-identical: %d vs %d bytes", len(raw), again.Len())
	}
}

// TestBinarySnapshotRejectsCorruption is the acceptance criterion's
// corruption suite: bit flips anywhere and torn prefixes of any length
// must be rejected, never silently misread.
func TestBinarySnapshotRejectsCorruption(t *testing.T) {
	sh := binTestSharded(t)
	var buf bytes.Buffer
	if err := sh.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bit flips", func(t *testing.T) {
		// Flip a bit in every region: magic, header counts, string table,
		// keys, confidences, varint columns, trailer.
		offsets := []int{
			0, 9, store.BinHeaderLen - 1, store.BinHeaderLen + 3,
			len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4,
			len(raw) - store.BinTrailerLen - 1, len(raw) - 1,
		}
		for _, off := range offsets {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x10
			if _, err := store.ReadBinarySnapshot(bytes.NewReader(mut)); err == nil {
				t.Errorf("bit flip at offset %d/%d accepted", off, len(raw))
			}
		}
	})

	t.Run("torn prefixes", func(t *testing.T) {
		for _, n := range []int{0, 1, len(store.BinMagic), store.BinHeaderLen,
			store.BinHeaderLen + store.BinTrailerLen, len(raw) / 3, len(raw) - 1} {
			if _, err := store.ReadBinarySnapshot(bytes.NewReader(raw[:n])); err == nil {
				t.Errorf("torn prefix of %d/%d bytes accepted", n, len(raw))
			}
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), raw...), 0xFF)
		if _, err := store.ReadBinarySnapshot(bytes.NewReader(mut)); err == nil {
			t.Error("trailing byte accepted")
		}
	})

	t.Run("wrong magic", func(t *testing.T) {
		if _, err := store.ReadBinarySnapshot(strings.NewReader("notasnap" + string(raw[8:]))); err == nil {
			t.Error("wrong magic accepted")
		}
	})
}

// TestBinarySnapshotFileAndOpen exercises the file-level paths: atomic
// write, layout selection in OpenSnapshotFile and the VerifySnapshotFile
// description.
func TestBinarySnapshotFileAndOpen(t *testing.T) {
	sh := binTestSharded(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.akb3")
	if err := sh.WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	info, err := store.VerifySnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != store.BinarySnapshotVersion || info.Facts != sh.Len() || info.Shards != sh.ShardCount() {
		t.Errorf("VerifySnapshotFile info = %+v", info)
	}

	// OpenSnapshotFile layout knob: 0 keeps segments, 1 flattens, N
	// re-shards — the same facts every time.
	for _, tc := range []struct{ shards, wantCount int }{
		{0, sh.ShardCount()},
		{1, 1},
		{6, 6},
	} {
		q, _, err := store.OpenSnapshotFile(path, tc.shards)
		if err != nil {
			t.Fatalf("OpenSnapshotFile(shards=%d): %v", tc.shards, err)
		}
		got := q.(*store.Sharded)
		if got.ShardCount() != tc.wantCount {
			t.Errorf("OpenSnapshotFile(shards=%d) has %d shards, want %d", tc.shards, got.ShardCount(), tc.wantCount)
		}
		if !reflect.DeepEqual(got.Facts(), sh.Facts()) {
			t.Errorf("OpenSnapshotFile(shards=%d) differs from source facts", tc.shards)
		}
	}
}

// TestWriteBinarySnapshotAllocationBound pins what writing costs the
// allocator: the buffer, sized once, however many facts — on a store
// NewSharded built and on one decoded from a file alike. The store holds its
// string table, so a write numbers nothing: numbering the strings in the
// writer made 7 allocations, and hashing every string into one map 69.
func TestWriteBinarySnapshotAllocationBound(t *testing.T) {
	for _, perClass := range []int{10, 100} {
		w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: perClass, AttrsPerEntity: 6})
		built := store.NewSharded(w.Facts(), store.DefaultShards)
		var buf bytes.Buffer
		if err := built.WriteBinarySnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := store.ReadBinarySnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name, sh := range map[string]*store.Sharded{"built": built, "decoded": decoded} {
			allocs := testing.AllocsPerRun(5, func() {
				if err := sh.WriteBinarySnapshot(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s, %d facts: %.0f allocations", name, sh.Len(), allocs)
			if allocs > 1 {
				t.Errorf("WriteBinarySnapshot of %d facts, %s, allocates %.0f times, want 1", sh.Len(), name, allocs)
			}
		}
	}
}

// TestReadBinarySnapshotAllocationBound pins what loading costs the
// allocator, in allocations and in bytes. The hash-map store allocated 4.2
// times per fact (a postings slice per key, two key strings per fact, a
// string per table entry); the reader now cuts strings, columns, ancestors
// and postings from a few arrays per shard. The bytes ceiling sits just above a
// load with one name table and integer-keyed indexes, so a string-keyed map
// per list would break it.
func TestReadBinarySnapshotAllocationBound(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 100, AttrsPerEntity: 6})
	sh := store.NewSharded(w.Facts(), store.DefaultShards)
	var buf bytes.Buffer
	if err := sh.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := store.ReadBinarySnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	// The bytes are the decode's, from the file in memory: how a buffer
	// grows while the file is read is the bytes package's (it grows once more
	// under the race detector).
	const decodes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decodes; i++ {
		if _, err := store.DecodeBinarySnapshot(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytesPerFact := float64(after.TotalAlloc-before.TotalAlloc) / decodes / float64(sh.Len())
	perFact := allocs / float64(sh.Len())
	t.Logf("%d facts: %.0f allocations, %.3f per fact; %.0f bytes per fact", sh.Len(), allocs, perFact, bytesPerFact)
	if perFact > 0.5 {
		t.Errorf("ReadBinarySnapshot allocates %.2f times per fact, want <= 0.5", perFact)
	}
	if bytesPerFact > readBytesPerFact {
		t.Errorf("ReadBinarySnapshot allocates %.0f bytes per fact, want <= %d", bytesPerFact, readBytesPerFact)
	}
}

// readBytesPerFact is TestReadBinarySnapshotAllocationBound's bytes ceiling:
// its KB decodes in 174 bytes a fact into columns. It decoded in 263 while
// every fact was also a 104-byte Fact (259 before the 4-byte valueID column),
// and in 268 when every list was a string-keyed map entry.
const readBytesPerFact = 178

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkBinarySnapshot times the codec's two directions on two KBs: a
// ground-truth world (no discovered attributes, 400 entities a class) and
// the KB the bench harness's serve-wide and datalog workloads write and
// cold-start — a scale-16 pipeline run on 8 shards, read back from its own
// snapshot as the harness's fixture is. shard is NewSharded of the KB's
// facts on 8 shards: sorting, indexing and numbering the strings, the one
// place a store's strings are numbered. read decodes from memory; open is
// OpenSnapshotFile of the file written — read, verify, decode, index — the
// store's share of what the harness times as cold_start_ms. Profile from
// open (PERF.md §3).
func BenchmarkBinarySnapshot(b *testing.B) {
	world := func(b *testing.B) []store.Fact {
		return kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 400, AttrsPerEntity: 6}).Facts()
	}
	pipeline := func(b *testing.B) []store.Fact {
		res, err := core.New(core.WithSeed(3), core.WithScale(16)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return res.Facts()
	}
	for _, kb := range []struct {
		name  string
		facts func(*testing.B) []store.Fact
	}{{"world", world}, {"pipeline16", pipeline}} {
		b.Run(kb.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := store.NewSharded(kb.facts(b), store.DefaultShards).WriteBinarySnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			sh, err := store.ReadBinarySnapshot(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("write/facts=%d", sh.Len()), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					var c countingWriter
					if err := sh.WriteBinarySnapshot(&c); err != nil {
						b.Fatal(err)
					}
				}
			})
			facts := sh.Facts()
			b.Run(fmt.Sprintf("shard/facts=%d", sh.Len()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					store.NewSharded(facts, store.DefaultShards)
				}
			})
			b.Run(fmt.Sprintf("read/facts=%d", sh.Len()), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, err := store.ReadBinarySnapshot(bytes.NewReader(raw)); err != nil {
						b.Fatal(err)
					}
				}
			})
			path := filepath.Join(b.TempDir(), "kb.akb")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("open/facts=%d", sh.Len()), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, _, err := store.OpenSnapshotFile(path, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestShardedMatchesStoreLivePipeline runs the same equivalence on real
// fused-pipeline output, where value hierarchies, multi-truth attributes
// and class skew all occur naturally.
func TestShardedMatchesStoreLivePipeline(t *testing.T) {
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	flat := store.New(res.Facts())
	if flat.Len() == 0 {
		t.Fatal("empty store from live pipeline")
	}
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sh := store.NewSharded(res.Facts(), n)
			store.AssertShardedEqual(t, flat, sh)
		})
	}
}

// TestShardedConcurrentReaders hammers the scatter-gather path from many
// goroutines under -race: the sharded store is immutable after
// construction, so concurrent merged reads must be data-race free and
// deterministic.
func TestShardedConcurrentReaders(t *testing.T) {
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	flat := store.New(res.Facts())
	sh := store.NewSharded(res.Facts(), 8)
	queries := store.ShardedQueries(flat)
	want := make([][]store.Fact, len(queries))
	for i, q := range queries {
		want[i] = flat.Lookup(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := (g + i) % len(queries)
				if got := sh.Lookup(queries[qi]); !reflect.DeepEqual(got, want[qi]) {
					t.Errorf("goroutine %d: concurrent Lookup(%+v) diverged", g, queries[qi])
					return
				}
				if facts, total := sh.LookupN(queries[qi], 3); total != len(want[qi]) || len(facts) > 3 {
					t.Errorf("goroutine %d: concurrent LookupN total %d want %d", g, total, len(want[qi]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreHoldsTheFactsStrings: however a store came to be — built by
// NewSharded on 1, 3 or 8 shards, decoded from a file, or re-sharded on the
// way in by OpenSnapshotFile — it holds exactly the sorted distinct strings
// of its facts, and its rank columns and index ids lead to their own.
func TestStoreHoldsTheFactsStrings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.akb")
	check := func(where string, s *store.Sharded) {
		store.CheckStrings(t, where, s)
		var buf bytes.Buffer
		if err := s.WriteBinarySnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		k := 1 + s.ShardCount()%8 // another count: 1 → 2, 3 → 4, 8 → 1
		q, _, err := store.OpenSnapshotFile(path, k)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		store.CheckStrings(t, fmt.Sprintf("%s, re-sharded to %d", where, k), q.(*store.Sharded))
	}
	store.OrderKBs(t, check)
	check("pipeline KB", binTestSharded(t))
}

// TestCodecRoundTrip: encode∘decode is the identity on facts, on every
// store the codec's tests build or decode and on the pipeline KB.
func TestCodecRoundTrip(t *testing.T) {
	check := func(where string, s *store.Sharded) { store.CheckRoundTrip(t, where, s) }
	store.OrderKBs(t, check)
	check("pipeline KB", binTestSharded(t))
}

func TestDecoderAssemblesWhatBuildBuilds(t *testing.T) {
	store.OrderKBs(t, func(where string, s *store.Sharded) {
		var buf bytes.Buffer
		if err := s.WriteBinarySnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		store.CheckDecoder(t, where, buf.Bytes())
	})
	var buf bytes.Buffer
	if err := binTestSharded(t).WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	store.CheckDecoder(t, "pipeline KB", buf.Bytes())
}

// TestDecodeIsTheSameAtAnyGOMAXPROCS decodes one file with one, two and four
// processors under the assembling goroutine: the stores are deeply equal.
// (CI runs the package under -race.)
func TestDecodeIsTheSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var files [][]byte
	for seed := int64(0); seed < 20; seed++ {
		var buf bytes.Buffer
		if err := store.NewSharded(store.OrderFacts(rand.New(rand.NewSource(seed))), 1+int(seed)%8).WriteBinarySnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	var buf bytes.Buffer
	if err := binTestSharded(t).WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	files = append(files, buf.Bytes())
	var first []*store.Sharded
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, file := range files {
			got, err := store.DecodeBinarySnapshot(file)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, file %d: %v", procs, i, err)
			}
			if procs == 1 {
				first = append(first, got)
			} else if !reflect.DeepEqual(got, first[i]) {
				t.Errorf("file %d: the store decoded at GOMAXPROCS %d differs from the one decoded at 1", i, procs)
			}
		}
	}
}
