package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"akb/internal/core"
	"akb/internal/kb"
)

// binTestSharded builds the live-pipeline store most binary-codec tests
// round-trip.
func binTestSharded(t *testing.T) *Sharded {
	t.Helper()
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(ResultFacts(res), 4)
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

	got, err := ReadBinarySnapshot(bytes.NewReader(raw))
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

// TestBinarySnapshotEmptyAndTiny covers degenerate stores: zero facts,
// one fact, empty-string class.
func TestBinarySnapshotEmptyAndTiny(t *testing.T) {
	for name, sh := range map[string]*Sharded{
		"empty": NewSharded(nil, 2),
		"one":   NewSharded([]Fact{{Entity: "E", Attr: "a", Value: "v", Confidence: 0.5}}, 3),
		"ancestors": NewSharded([]Fact{
			{Entity: "E", Class: "C", Attr: "a", Value: "Wuhan", Confidence: 1, Sources: 9,
				Ancestors: []string{"Hubei", "China"}},
		}, 2),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sh.WriteBinarySnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBinarySnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Facts(), sh.Facts()) {
				t.Errorf("round trip differs: %+v vs %+v", got.Facts(), sh.Facts())
			}
		})
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
			0, 9, binHeaderLen - 1, binHeaderLen + 3,
			len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4,
			len(raw) - binTrailerLen - 1, len(raw) - 1,
		}
		for _, off := range offsets {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x10
			if _, err := ReadBinarySnapshot(bytes.NewReader(mut)); err == nil {
				t.Errorf("bit flip at offset %d/%d accepted", off, len(raw))
			}
		}
	})

	t.Run("torn prefixes", func(t *testing.T) {
		for _, n := range []int{0, 1, len(binMagic), binHeaderLen,
			binHeaderLen + binTrailerLen, len(raw) / 3, len(raw) - 1} {
			if _, err := ReadBinarySnapshot(bytes.NewReader(raw[:n])); err == nil {
				t.Errorf("torn prefix of %d/%d bytes accepted", n, len(raw))
			}
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), raw...), 0xFF)
		if _, err := ReadBinarySnapshot(bytes.NewReader(mut)); err == nil {
			t.Error("trailing byte accepted")
		}
	})

	t.Run("wrong magic", func(t *testing.T) {
		if _, err := ReadBinarySnapshot(strings.NewReader("notasnap" + string(raw[8:]))); err == nil {
			t.Error("wrong magic accepted")
		}
	})
}

// signed appends the sha256 trailer a version-3 file ends with: what
// anyone crafting a snapshot can do, so the checksum is no defence for
// the parser behind it.
func signed(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(append([]byte(nil), payload...), sum[:]...)
}

// binPayload is the store's version-3 encoding without its trailer.
func binPayload(t testing.TB, sh *Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sh.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-binTrailerLen]
}

// TestBinarySnapshotRejectsCraftedCounts feeds the reader files whose
// checksum is valid and whose declared counts are absurd. Each used to
// reach make() unchecked — a 56-byte file declaring 2^62 strings
// panicked the process, 2^40 ran it out of memory — and each must be a
// format error, through the reader and the verifier alike.
func TestBinarySnapshotRejectsCraftedCounts(t *testing.T) {
	be := binary.BigEndian
	header := func(shards uint32, facts, strs uint64) []byte {
		b := append([]byte(binMagic), make([]byte, 24)...)
		be.PutUint32(b[8:], BinarySnapshotVersion)
		be.PutUint32(b[12:], shards)
		be.PutUint64(b[16:], facts)
		be.PutUint64(b[24:], strs)
		return b
	}
	one := binPayload(t, NewSharded([]Fact{{Entity: "E", Class: "C", Attr: "a", Value: "v"}}, 1))
	shardCount := bytes.LastIndex(one, be.AppendUint64(nil, 1)) // the shard's u64 fact count
	for name, payload := range map[string][]byte{
		"2^62 strings":    header(1, 0, 1<<62),
		"2^40 strings":    header(1, 0, 1<<40),
		"2^62 facts":      header(1, 1<<62, 0),
		"2^40 facts":      header(1, 1<<40, 0),
		"2^32-1 shards":   header(1<<32-1, 0, 0),
		"2^61 shard size": append(append([]byte(nil), one[:shardCount]...), append(be.AppendUint64(nil, 1<<61), one[shardCount+8:]...)...),
		"2^40 ancestors":  append(one[:len(one)-1:len(one)-1], binary.AppendUvarint(nil, 1<<40)...),
	} {
		t.Run(name, func(t *testing.T) {
			file := signed(payload)
			if _, err := ReadBinarySnapshot(bytes.NewReader(file)); err == nil {
				t.Error("ReadBinarySnapshot accepted it")
			} else {
				t.Log(err)
			}
			if name == "2^61 shard size" || name == "2^40 ancestors" {
				return // past the header, which is all the verifier parses
			}
			if _, _, err := binVerify(file); err == nil {
				t.Error("binVerify accepted it")
			}
		})
	}
}

// TestBinarySnapshotRejectsNonCanonical covers what the reader verifies
// instead of redoing: files with a valid checksum whose string table or
// keys are not in the strictly increasing order the format promises (the
// store's entity index is that order, so accepting them would serve wrong
// answers), and the encodings the writer never produces.
func TestBinarySnapshotRejectsNonCanonical(t *testing.T) {
	// One shard, two facts; the string table is "C" "E" "a" "v" "w", one
	// length byte and one byte each, and the keys follow the shard's count.
	good := binPayload(t, NewSharded([]Fact{
		{Entity: "E", Class: "C", Attr: "a", Value: "v"},
		{Entity: "E", Class: "C", Attr: "a", Value: "w"},
	}, 1))
	if _, err := ReadBinarySnapshot(bytes.NewReader(signed(good))); err != nil {
		t.Fatalf("unmodified file: %v", err)
	}
	table, keys := binHeaderLen, binHeaderLen+2*5+8
	mutate := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), good...))
	}
	for name, payload := range map[string][]byte{
		"unsorted string table": mutate(func(b []byte) []byte {
			b[table+1], b[table+3] = b[table+3], b[table+1]
			return b
		}),
		"repeated string": mutate(func(b []byte) []byte {
			b[table+3] = b[table+1]
			return b
		}),
		"unsorted keys": mutate(func(b []byte) []byte {
			first := append([]byte(nil), b[keys:keys+binKeyWidth]...)
			copy(b[keys:], b[keys+binKeyWidth:keys+2*binKeyWidth])
			copy(b[keys+binKeyWidth:], first)
			return b
		}),
		"duplicate key": mutate(func(b []byte) []byte {
			copy(b[keys+binKeyWidth:], b[keys:keys+binKeyWidth])
			return b
		}),
		"unreferenced string": mutate(func(b []byte) []byte {
			// The first fact's value becomes "a": the keys still increase,
			// and "v" stays in the table with no fact naming it.
			binary.BigEndian.PutUint32(b[keys+8:], 2)
			return b
		}),
		"padded varint": mutate(func(b []byte) []byte {
			// The last byte is the second fact's ancestor count, 0; 0x80 0x00
			// decodes to 0 as well.
			return append(b[:len(b)-1], 0x80, 0x00)
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinarySnapshot(bytes.NewReader(signed(payload))); err == nil {
				t.Error("accepted")
			} else if strings.Contains(err.Error(), "checksum") {
				t.Errorf("rejected by the checksum, not by the check under test: %v", err)
			} else {
				t.Log(err)
			}
		})
	}
}

// TestChecksumMismatchWinsOverFormatErrors: the trailer is checked beside
// the decode, not before it, and still decides. A file whose trailer is wrong
// and whose payload is malformed too — each payload is first shown to be
// refused by a check of its own behind a right trailer — is refused as
// corrupt, with the checksum mismatch, whichever check of the payload fails
// first, and by the opener as by the reader.
func TestChecksumMismatchWinsOverFormatErrors(t *testing.T) {
	good := binPayload(t, NewSharded([]Fact{
		{Entity: "E", Class: "C", Attr: "a", Value: "v"},
		{Entity: "E", Class: "C", Attr: "a", Value: "w"},
	}, 1))
	keys := binHeaderLen + 2*5 + 8 // as in TestBinarySnapshotRejectsNonCanonical
	mutate := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), good...))
	}
	path := filepath.Join(t.TempDir(), "kb.akb")
	for name, payload := range map[string][]byte{
		"padded varint": mutate(func(b []byte) []byte { return append(b[:len(b)-1], 0x80, 0x00) }),
		"non-increasing key": mutate(func(b []byte) []byte {
			copy(b[keys+binKeyWidth:], b[keys:keys+binKeyWidth])
			return b
		}),
		"oversized header count": mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[16:], 1<<40) // the fact count
			return b
		}),
		"unsorted string table": mutate(func(b []byte) []byte {
			b[binHeaderLen+1], b[binHeaderLen+3] = b[binHeaderLen+3], b[binHeaderLen+1]
			return b
		}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadBinarySnapshot(bytes.NewReader(signed(payload))); err == nil || strings.Contains(err.Error(), "checksum") {
				t.Fatalf("behind a right trailer: err = %v, want the payload's own refusal", err)
			}
			file := signed(payload)
			file[len(file)-1] ^= 1
			if sh, err := ReadBinarySnapshot(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Errorf("ReadBinarySnapshot = %v, %v; want the checksum mismatch", sh, err)
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := OpenSnapshotFile(path, 0); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Errorf("OpenSnapshotFile: err = %v, want the checksum mismatch", err)
			}
		})
	}
}

// nonFinitePayload is a one-fact snapshot, without its trailer, whose
// confidence column has been overwritten with conf: what the writer refuses
// to produce, as a file.
func nonFinitePayload(t testing.TB, conf float64) []byte {
	t.Helper()
	payload := binPayload(t, NewSharded([]Fact{{Entity: "E", Class: "C", Attr: "a", Value: "v", Confidence: 0.5}}, 1))
	at := bytes.Index(payload, binary.BigEndian.AppendUint64(nil, math.Float64bits(0.5)))
	if at < 0 {
		t.Fatal("no confidence column in the one-fact snapshot")
	}
	binary.BigEndian.PutUint64(payload[at:], math.Float64bits(conf))
	return payload
}

// unservable is a one-fact store whose columns were given, after it was
// built, a confidence and a source count New refuses: what reaches the
// writer's own checks.
func unservable(conf float64, sources int) *Sharded {
	s := New([]Fact{{Entity: "a", Attr: "b", Value: "c"}})
	s.shards[0].conf[0], s.shards[0].sources[0] = conf, sources
	return s
}

// TestSnapshotRefusesNonFiniteConfidence: a NaN or an infinite confidence
// cannot be served — the JSON encoder has no spelling for it, so every
// request that touched the fact answered 500 — and a snapshot carrying one
// used to be written and loaded without complaint: a reload swapped a
// serving generation for one that could not answer. Both sides refuse it
// now, the decoder as a format error behind a valid checksum. New refuses
// it before either (TestNewRefusesUnservableFacts), so the writer's own
// check is reached through a store's columns (unservable). Finite
// confidences outside [0,1] stay accepted: the nasty KBs carry them.
func TestSnapshotRefusesNonFiniteConfidence(t *testing.T) {
	for _, conf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xFFF8_0000_0000_0001)} {
		s := unservable(conf, 0)
		if err := s.WriteBinarySnapshot(io.Discard); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("WriteBinarySnapshot with confidence %v: err = %v, want a refusal", conf, err)
		}
		path := filepath.Join(t.TempDir(), "kb.akb")
		if err := s.WriteBinarySnapshotFile(path); err == nil {
			t.Errorf("WriteBinarySnapshotFile with confidence %v succeeded", conf)
		} else if _, serr := os.Stat(path); serr == nil {
			t.Errorf("WriteBinarySnapshotFile with confidence %v refused (%v) and published a file", conf, err)
		}
		_, err := ReadBinarySnapshot(bytes.NewReader(signed(nonFinitePayload(t, conf))))
		if err == nil {
			t.Errorf("ReadBinarySnapshot accepted a file with confidence %v", conf)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("file with confidence %v rejected by another check: %v", conf, err)
		}
	}
	for _, conf := range []float64{-1, 0, 1, 1.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got, err := ReadBinarySnapshot(bytes.NewReader(signed(nonFinitePayload(t, conf))))
		if err != nil {
			t.Errorf("file with the finite confidence %v rejected: %v", conf, err)
		} else if c := got.Facts()[0].Confidence; c != conf {
			t.Errorf("confidence %v read back as %v", conf, c)
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
		built := NewSharded(WorldFacts(w), DefaultShards)
		var buf bytes.Buffer
		if err := built.WriteBinarySnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadBinarySnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name, sh := range map[string]*Sharded{"built": built, "decoded": decoded} {
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

// TestSnapshotFileHasCreateMode: the published snapshot has the mode
// os.Create gives a file under the process's umask — it had os.CreateTemp's
// 0600, which a server under another account cannot open — and a write that
// fails leaves no temporary file behind.
func TestSnapshotFileHasCreateMode(t *testing.T) {
	dir := t.TempDir()
	beside, err := os.Create(filepath.Join(dir, "beside"))
	if err != nil {
		t.Fatal(err)
	}
	beside.Close()
	want, err := os.Stat(beside.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "kb.akb")
	for _, round := range []string{"new file", "over the old one"} {
		if err := New(testFacts()).WriteBinarySnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode() != want.Mode() {
			t.Errorf("%s: snapshot published with mode %v, os.Create gives %v", round, got.Mode(), want.Mode())
		}
	}
	failing := unservable(0, -1)
	if err := failing.WriteBinarySnapshotFile(path); err == nil {
		t.Fatal("a negative source count was written")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("failed write left %s behind", e.Name())
		}
	}
	if _, err := openFlat(path); err != nil {
		t.Errorf("failed write damaged the published snapshot: %v", err)
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
	sh := NewSharded(WorldFacts(w), DefaultShards)
	var buf bytes.Buffer
	if err := sh.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadBinarySnapshot(bytes.NewReader(buf.Bytes())); err != nil {
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
		if _, err := decodeBinarySnapshot(buf.Bytes()); err != nil {
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

// FuzzReadBinarySnapshot fuzzes the version-3 reader behind a correct
// checksum: the input is a payload, the harness signs it. Whatever the
// bytes, the reader returns (never panics), allocates no more than a small
// multiple of the input — 64x covers the dearest legitimate shape, a file
// of empty shards — and anything it accepts re-encodes to the same bytes.
func FuzzReadBinarySnapshot(f *testing.F) {
	for _, sh := range []*Sharded{
		NewSharded(nil, 2),
		NewSharded([]Fact{{Entity: "E", Attr: "a", Value: "v", Confidence: 0.5}}, 1),
		NewSharded(testFacts(), 3),
		NewSharded([]Fact{
			{Entity: "E", Class: "C", Attr: "a", Value: "Wuhan", Confidence: 1, Sources: 9, Ancestors: []string{"Hubei", "China"}},
			{Entity: "F", Attr: "a", Value: "Hubei", Confidence: 0.25, Sources: 300, Ancestors: []string{"China"}},
		}, 2),
	} {
		f.Add(binPayload(f, sh))
	}
	// Files without the magic: the refusal must hold behind a valid
	// checksum too.
	for _, file := range notV3Files {
		f.Add([]byte(file.content))
	}
	f.Add(nonFinitePayload(f, math.NaN()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := signed(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sh, err := ReadBinarySnapshot(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(file)+1<<16); got > limit {
			t.Errorf("decoding %d bytes allocated %d, more than %d", len(file), got, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := sh.WriteBinarySnapshot(&again); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), file) {
			t.Errorf("accepted file re-encodes to different bytes:\n in: %x\nout: %x", file, again.Bytes())
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

	info, err := VerifySnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != BinarySnapshotVersion || info.Facts != sh.Len() || info.Shards != sh.ShardCount() {
		t.Errorf("VerifySnapshotFile info = %+v", info)
	}

	// OpenSnapshotFile layout knob: 0 keeps segments, 1 flattens, N
	// re-shards — the same facts every time.
	for _, tc := range []struct{ shards, wantCount int }{
		{0, sh.ShardCount()},
		{1, 1},
		{6, 6},
	} {
		q, _, err := OpenSnapshotFile(path, tc.shards)
		if err != nil {
			t.Fatalf("OpenSnapshotFile(shards=%d): %v", tc.shards, err)
		}
		got := q.(*Sharded)
		if got.ShardCount() != tc.wantCount {
			t.Errorf("OpenSnapshotFile(shards=%d) has %d shards, want %d", tc.shards, got.ShardCount(), tc.wantCount)
		}
		if !reflect.DeepEqual(got.Facts(), sh.Facts()) {
			t.Errorf("OpenSnapshotFile(shards=%d) differs from source facts", tc.shards)
		}
	}
}

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
	world := func(b *testing.B) []Fact {
		return WorldFacts(kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 400, AttrsPerEntity: 6}))
	}
	pipeline := func(b *testing.B) []Fact {
		res, err := core.New(core.WithSeed(3), core.WithScale(16)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return ResultFacts(res)
	}
	for _, kb := range []struct {
		name  string
		facts func(*testing.B) []Fact
	}{{"world", world}, {"pipeline16", pipeline}} {
		b.Run(kb.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := NewSharded(kb.facts(b), DefaultShards).WriteBinarySnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			sh, err := ReadBinarySnapshot(bytes.NewReader(raw))
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
					NewSharded(facts, DefaultShards)
				}
			})
			b.Run(fmt.Sprintf("read/facts=%d", sh.Len()), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				for i := 0; i < b.N; i++ {
					if _, err := ReadBinarySnapshot(bytes.NewReader(raw)); err != nil {
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
					if _, _, err := OpenSnapshotFile(path, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
