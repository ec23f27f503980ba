package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
)

// SnapshotInfo describes a snapshot file as stored (not the layout it is
// served in). One exists only for a file whose checksum matched:
// OpenSnapshotFile and VerifySnapshotFile return the same info for the
// same bytes.
type SnapshotInfo struct {
	Path    string
	Version int
	Facts   int
	// Shards is the stored segment count.
	Shards int
	// Checksum is the file's verified trailer, "sha256:<hex>".
	Checksum string
}

// String renders the description every command prints, e.g.
//
//	version=3 facts=3184 shards=8
func (i SnapshotInfo) String() string {
	return fmt.Sprintf("version=%d facts=%d shards=%d", i.Version, i.Facts, i.Shards)
}

// describe is the info of a verified snapshot file, given its trailer.
func describe(path string, trailer []byte, facts, shards int) SnapshotInfo {
	return SnapshotInfo{
		Path: path, Version: BinarySnapshotVersion, Facts: facts, Shards: shards,
		Checksum: "sha256:" + hex.EncodeToString(trailer),
	}
}

// syncWriteCloser is the slice of *os.File the snapshot writer needs;
// tests substitute failing fakes to pin the error-joining contract.
type syncWriteCloser interface {
	io.WriteCloser
	Sync() error
}

// writeSyncClose runs write against f, fsyncs, and closes it, joining
// every error instead of letting a failed close vanish behind a failed
// write (or vice versa).
func writeSyncClose(f syncWriteCloser, write func(io.Writer) error) error {
	werr := write(f)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	return errors.Join(werr, serr, f.Close())
}

// OpenSnapshotFile loads a snapshot into a servable store (the Querier is
// always a *Sharded). shards picks the serving layout: 0 keeps the file's
// stored segments, any other value partitions into that many shards — 1
// being the flat store. The file is read whole, in one read sized by stat.
func OpenSnapshotFile(path string, shards int) (Querier, SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SnapshotInfo{Path: path}, err
	}
	sh, err := decodeBinarySnapshot(data)
	if err != nil {
		return nil, SnapshotInfo{Path: path}, fmt.Errorf("%s: %w", path, err)
	}
	info := describe(path, data[len(data)-binTrailerLen:], sh.Len(), sh.ShardCount())
	if shards > 0 && shards != sh.ShardCount() {
		sh = NewSharded(sh.Facts(), shards)
	}
	return sh, info, nil
}

// VerifySnapshotFile checks a snapshot's integrity — the checksum over
// the whole file plus the fixed header — without building stores. The
// checksum covers every payload byte, so a deeper structural walk cannot
// find corruption the trailer missed. The file is streamed through the
// checksum in reads of a fixed buffer, so verifying a snapshot of any size
// holds the same memory. It backs `akb snapshot verify|info`.
func VerifySnapshotFile(path string) (SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotInfo{Path: path}, err
	}
	defer f.Close()
	hdr, trailer, err := binVerify(f)
	if err != nil {
		return SnapshotInfo{Path: path}, fmt.Errorf("%s: %w", path, err)
	}
	return describe(path, trailer, hdr.facts, hdr.shards), nil
}
