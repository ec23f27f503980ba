package store

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSnapshotRoundTrip(t *testing.T) {
	s := New(testFacts())
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Facts(), s.Facts()) {
		t.Fatalf("round trip changed facts:\n got: %+v\nwant: %+v", back.Facts(), s.Facts())
	}
	// The codec is deterministic: re-serialising the loaded store must be
	// byte-identical (and therefore keep the same checksum).
	var again bytes.Buffer
	if err := back.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot serialisation is not deterministic")
	}
}

// TestSnapshotGolden pins the snapshot JSON layout against a checked-in
// golden file, so accidental codec changes fail loudly instead of
// silently orphaning saved snapshots. Regenerate with -update.
func TestSnapshotGolden(t *testing.T) {
	s := New(testFacts())
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot differs from golden:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSnapshotReadsV1 pins backwards compatibility: a version-1 snapshot
// (written before the checksum existed) must still load, checksum-free.
// The golden is the actual v1 output frozen when the codec moved to v2.
func TestSnapshotReadsV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot.v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 snapshot no longer loads: %v", err)
	}
	if !reflect.DeepEqual(back.Facts(), New(testFacts()).Facts()) {
		t.Fatal("v1 snapshot loaded different facts")
	}
}

func TestReadSnapshotRejectsBadFiles(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", "hello", "decode"},
		{"wrong format", `{"format":"something-else","version":1,"count":0}`, "not an akb snapshot"},
		{"future version", `{"format":"akb-snapshot","version":99,"count":0}`, "unsupported snapshot version"},
		{"zero version", `{"format":"akb-snapshot","version":0,"count":0}`, "unsupported snapshot version"},
		{"truncated", `{"format":"akb-snapshot","version":1,"count":3,"facts":[]}`, "truncated"},
		{"v2 without checksum", `{"format":"akb-snapshot","version":2,"count":0,"facts":[]}`, "no checksum"},
		{"v2 wrong checksum", `{"format":"akb-snapshot","version":2,"count":0,"checksum":"sha256:beef","facts":[]}`, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotDetectsBitFlip corrupts one byte of a valid v2 snapshot's
// payload and asserts the checksum, not luck, rejects it: the flipped
// file is still well-formed JSON with the right count, so only the
// integrity check stands between it and being served.
func TestSnapshotDetectsBitFlip(t *testing.T) {
	s := New(testFacts())
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	i := bytes.Index(raw, []byte("Casablanca"))
	if i < 0 {
		t.Fatal("test fact missing from snapshot")
	}
	flipped := append([]byte(nil), raw...)
	flipped[i] = 'K' // "Kasablanca": valid JSON, wrong knowledge
	_, err := ReadSnapshot(bytes.NewReader(flipped))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit flip not caught by checksum: err = %v", err)
	}
}

// openFlat opens a snapshot file of either codec as a one-shard store.
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
	if err := s.WriteSnapshotFile(path); err != nil {
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
	if err := old.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The replacement store the interrupted writer was saving.
	replacement := New([]Fact{{Entity: "New World", Attr: "status", Value: "half written", Confidence: 1}})
	var full bytes.Buffer
	if err := replacement.WriteSnapshot(&full); err != nil {
		t.Fatal(err)
	}

	// Interrupt the write at every possible point: a torn temp file
	// holding a strict prefix of the new snapshot must either fail
	// verification or be the complete payload (a crash after the last
	// payload byte but before the trailing newline loses nothing). What
	// can never happen is a prefix that verifies yet holds different
	// facts — loadable-but-wrong.
	wantSum, err := factsChecksum(replacement.Facts())
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "kb.akb.tmp-crashed")
	for n := 1; n < full.Len(); n++ {
		if err := os.WriteFile(torn, full.Bytes()[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := VerifySnapshotFile(torn)
		if err == nil && info.Checksum != wantSum {
			t.Errorf("torn snapshot (%d/%d bytes) verified with wrong payload: %+v", n, full.Len(), info)
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
		return s.WriteSnapshot(&limitWriter{w: w, n: 64})
	})
	// No rename: the "process died" before publishing — exactly the
	// sequence WriteSnapshotFile guarantees leaves path untouched.
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
	if err := s.WriteSnapshotFile(filepath.Join(t.TempDir(), "no", "such", "dir", "kb.akb")); err == nil {
		t.Error("write into missing directory accepted")
	}
	// Renaming over a directory fails after the temp write; the temp file
	// must be cleaned up.
	dir := t.TempDir()
	target := filepath.Join(dir, "kb.akb")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshotFile(target); err == nil {
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
// WriteSnapshotFile bug where an encode error swallowed the close error:
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

func TestVerifySnapshotFile(t *testing.T) {
	s := New(testFacts())
	path := filepath.Join(t.TempDir(), "kb.akb")
	if err := s.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	info, err := VerifySnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != SnapshotVersion || info.Facts != s.Len() || !strings.HasPrefix(info.Checksum, "sha256:") {
		t.Errorf("info = %+v", info)
	}
	// Corrupt in place; verification must now fail with the checksum error.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
