package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

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
