package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSnapshotRoundTrip pins the codec's determinism on the hand-made
// fixture: write → read rebuilds the same facts, and re-serialising the
// loaded store is byte-identical (and therefore keeps the same checksum).
func TestSnapshotRoundTrip(t *testing.T) {
	s := New(testFacts())
	var buf bytes.Buffer
	if err := s.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinarySnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Facts(), s.Facts()) {
		t.Fatalf("round trip changed facts:\n got: %+v\nwant: %+v", back.Facts(), s.Facts())
	}
	var again bytes.Buffer
	if err := back.WriteBinarySnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot serialisation is not deterministic")
	}
}

// TestReadSnapshotRejectsBadFiles pins the one refusal every file that is
// not a version-3 snapshot gets from OpenSnapshotFile and
// VerifySnapshotFile alike: an error that names the remedy, never a panic
// and never a misleading checksum or truncation message.
func TestReadSnapshotRejectsBadFiles(t *testing.T) {
	for _, file := range notV3Files {
		t.Run(file.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kb.akb")
			if err := os.WriteFile(path, []byte(file.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, openErr := OpenSnapshotFile(path, 0)
			_, verifyErr := VerifySnapshotFile(path)
			for _, err := range []error{openErr, verifyErr} {
				if !errors.Is(err, errNotV3) || !strings.Contains(err.Error(), "not a v3 snapshot") ||
					!strings.Contains(err.Error(), "akb pipeline -snapshot") || !strings.Contains(err.Error(), path) {
					t.Errorf("err = %v, want the not-a-v3-snapshot refusal naming %s", err, path)
				}
			}
		})
	}
}

// notV3Files are files the snapshot reader refuses before parsing them:
// a JSON snapshot that used to load, the seven files the JSON reader
// used to turn away each for a reason of its own, and the two shortest
// files there are.
var notV3Files = []struct{ name, content string }{
	{"valid v1", `{
  "format": "akb-snapshot",
  "version": 1,
  "count": 1,
  "facts": [{"entity": "Casablanca", "attr": "director", "value": "Michael Curtiz", "confidence": 0.97}]
}`},
	{"not json", "hello"},
	{"wrong format", `{"format":"something-else","version":1,"count":0}`},
	{"future version", `{"format":"akb-snapshot","version":99,"count":0}`},
	{"zero version", `{"format":"akb-snapshot","version":0,"count":0}`},
	{"truncated", `{"format":"akb-snapshot","version":1,"count":3,"facts":[]}`},
	{"v2 without checksum", `{"format":"akb-snapshot","version":2,"count":0,"facts":[]}`},
	{"v2 wrong checksum", `{"format":"akb-snapshot","version":2,"count":0,"checksum":"sha256:beef","facts":[]}`},
	{"empty", ""},
	{"7 bytes", binMagic[:7]},
}

// TestSnapshotDetectsBitFlip corrupts one byte of a valid snapshot file's
// string table and asserts the checksum, not luck, rejects it: the
// flipped file is still a well-formed snapshot of the same shape, so only
// the integrity check stands between it and being served.
func TestSnapshotDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.akb")
	if err := New(testFacts()).WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("Casablanca"))
	if i < 0 {
		t.Fatal("test fact missing from snapshot")
	}
	raw[i] = 'K' // "Kasablanca": same layout, wrong knowledge
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openFlat(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit flip not caught by checksum: err = %v", err)
	}
}

// openFlat opens a snapshot file as a one-shard store.
func openFlat(path string) (*Sharded, error) {
	q, _, err := OpenSnapshotFile(path, 1)
	if err != nil {
		return nil, err
	}
	return q.(*Sharded), nil
}

func TestSnapshotFileHelpers(t *testing.T) {
	s := New(testFacts())
	path := filepath.Join(t.TempDir(), "kb.akb")
	if err := s.WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := openFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("loaded %d facts, want %d", back.Len(), s.Len())
	}
	// The atomic write must leave no temp litter behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestReadSnapshotFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := openFlat(filepath.Join(dir, "missing.akb")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
	if _, err := openFlat(dir); err == nil {
		t.Error("directory-as-path accepted")
	}
}

// TestWriteSnapshotFileAtomic simulates the crash-mid-write scenario: a
// replacement write that dies before the rename must leave the existing
// snapshot byte-identical and loadable, and the torn temp bytes must
// never verify as a snapshot at any truncation point.
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.akb")
	old := New(testFacts())
	if err := old.WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The replacement store the interrupted writer was saving.
	replacement := New([]Fact{{Entity: "New World", Attr: "status", Value: "half written", Confidence: 1}})
	var full bytes.Buffer
	if err := replacement.WriteBinarySnapshot(&full); err != nil {
		t.Fatal(err)
	}

	// Interrupt the write at every possible point: a torn temp file
	// holding a strict prefix of the new snapshot must fail verification,
	// and opening it must fail the same way — never loadable-but-wrong.
	torn := filepath.Join(dir, "kb.akb.tmp-crashed")
	for n := 0; n < full.Len(); n++ {
		if err := os.WriteFile(torn, full.Bytes()[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if info, err := VerifySnapshotFile(torn); err == nil {
			t.Errorf("torn snapshot (%d/%d bytes) verified: %+v", n, full.Len(), info)
		}
		if _, err := openFlat(torn); err == nil {
			t.Errorf("torn snapshot (%d/%d bytes) opened", n, full.Len())
		}
	}

	// A writer that fails before finishing must not touch the target.
	if err := writeInterrupted(t, replacement, path); err == nil {
		t.Fatal("interrupted write reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("interrupted write modified the existing snapshot")
	}
	if _, err := openFlat(path); err != nil {
		t.Fatalf("existing snapshot unreadable after interrupted write: %v", err)
	}
}

// writeInterrupted drives the snapshot-file write path but kills the
// stream partway, standing in for a crash mid-write.
func writeInterrupted(t *testing.T, s *Sharded, path string) error {
	t.Helper()
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	err = writeSyncClose(f, func(w io.Writer) error {
		return s.WriteBinarySnapshot(&limitWriter{w: w, n: 64})
	})
	// No rename: the "process died" before publishing — exactly the
	// sequence WriteBinarySnapshotFile guarantees leaves path untouched.
	return err
}

// limitWriter fails after n bytes, like a full disk or a killed process.
type limitWriter struct {
	w io.Writer
	n int
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if len(p) > lw.n {
		p = p[:lw.n]
		lw.w.Write(p)
		lw.n = 0
		return len(p), errors.New("write interrupted")
	}
	lw.n -= len(p)
	return lw.w.Write(p)
}

// TestWriteSnapshotFileTargetErrors covers the paths where the atomic
// write can't even start or can't publish.
func TestWriteSnapshotFileTargetErrors(t *testing.T) {
	s := New(testFacts())
	if err := s.WriteBinarySnapshotFile(filepath.Join(t.TempDir(), "no", "such", "dir", "kb.akb")); err == nil {
		t.Error("write into missing directory accepted")
	}
	// Renaming over a directory fails after the temp write; the temp file
	// must be cleaned up.
	dir := t.TempDir()
	target := filepath.Join(dir, "kb.akb")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBinarySnapshotFile(target); err == nil {
		t.Error("rename over directory accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left after failed publish: %v", entries)
	}
}

// failingFile fails Write, Sync and Close independently, to prove every
// error surfaces.
type failingFile struct{ werr, serr, cerr error }

func (f *failingFile) Write(p []byte) (int, error) {
	if f.werr != nil {
		return 0, f.werr
	}
	return len(p), nil
}
func (f *failingFile) Sync() error  { return f.serr }
func (f *failingFile) Close() error { return f.cerr }

// TestWriteSyncCloseJoinsErrors is the regression test for the old
// snapshot-file bug where an encode error swallowed the close error:
// both must now appear in the joined error, and a sync failure must not
// hide behind a clean write either.
func TestWriteSyncCloseJoinsErrors(t *testing.T) {
	werr := errors.New("encode exploded")
	serr := errors.New("sync exploded")
	cerr := errors.New("close exploded")

	err := writeSyncClose(&failingFile{werr: werr, cerr: cerr}, func(w io.Writer) error {
		_, e := w.Write([]byte("x"))
		return e
	})
	if !errors.Is(err, werr) || !errors.Is(err, cerr) {
		t.Fatalf("write+close join lost a cause: %v", err)
	}

	err = writeSyncClose(&failingFile{serr: serr, cerr: cerr}, func(w io.Writer) error { return nil })
	if !errors.Is(err, serr) || !errors.Is(err, cerr) {
		t.Fatalf("sync+close join lost a cause: %v", err)
	}

	if err := writeSyncClose(&failingFile{}, func(w io.Writer) error { return nil }); err != nil {
		t.Fatalf("clean path errored: %v", err)
	}
}

// TestVerifySnapshotFile checks the verifier and the opener describe one
// file identically — whatever layout it is opened into — and that both
// refuse it once a byte has changed.
func TestVerifySnapshotFile(t *testing.T) {
	s := NewSharded(testFacts(), 3)
	path := filepath.Join(t.TempDir(), "kb.akb")
	if err := s.WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := VerifySnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := SnapshotInfo{Path: path, Version: 3, Facts: s.Len(), Shards: 3,
		Checksum: "sha256:" + hex.EncodeToString(raw[len(raw)-sha256.Size:])}
	if info != want {
		t.Errorf("VerifySnapshotFile = %+v, want %+v", info, want)
	}
	if got := info.String(); got != fmt.Sprintf("version=3 facts=%d shards=3", s.Len()) {
		t.Errorf("info renders as %q", got)
	}
	for _, shards := range []int{0, 1, 8} {
		if _, opened, err := OpenSnapshotFile(path, shards); err != nil || opened != info {
			t.Errorf("OpenSnapshotFile(shards=%d) info = %+v, %v; VerifySnapshotFile said %+v", shards, opened, err, info)
		}
	}
	// Corrupt in place; verification must now fail with the checksum error.
	raw[bytes.Index(raw, []byte("Casablanca"))] = 'X'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySnapshotFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupt file verified: %v", err)
	}
	if _, err := VerifySnapshotFile(filepath.Join(t.TempDir(), "nope.akb")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}
