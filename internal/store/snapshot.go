package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Snapshot format constants. The codec is deterministic: facts serialise
// in the store's canonical order with stable field order and two-space
// indentation, so two snapshots of the same run are byte-identical and
// diffable.
const (
	// SnapshotFormat identifies the file as an akb store snapshot.
	SnapshotFormat = "akb-snapshot"
	// SnapshotVersion is the current codec version. ReadSnapshot accepts
	// any version from 1 up to this and rejects newer files, so old
	// binaries fail loudly instead of misreading future snapshots.
	//
	// Version history:
	//   1  format/version/count header + facts
	//   2  adds a SHA-256 checksum over the fact payload, so corruption
	//      (torn writes, bit rot, hand edits) is detected instead of
	//      served; v1 files without a checksum still load
	SnapshotVersion = 2
)

// checksumPrefix tags the hash algorithm in the checksum field, leaving
// room to rotate algorithms in a later codec version.
const checksumPrefix = "sha256:"

// snapshotFile is the on-disk layout. The fact count is recorded so a
// truncated file is detected even though JSON decoding would "succeed";
// the checksum (v2+) catches every other byte-level corruption of the
// payload.
type snapshotFile struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Count    int    `json:"count"`
	Checksum string `json:"checksum,omitempty"`
	Facts    []Fact `json:"facts"`
}

// factsChecksum hashes the canonical (compact JSON) encoding of the fact
// payload. Hashing the re-marshalled facts rather than raw file bytes
// makes the checksum independent of indentation, so it survives
// pretty-printing — but any change to fact *content* fails verification.
func factsChecksum(facts []Fact) (string, error) {
	raw, err := json.Marshal(facts)
	if err != nil {
		return "", fmt.Errorf("store: checksum facts: %w", err)
	}
	sum := sha256.Sum256(raw)
	return checksumPrefix + hex.EncodeToString(sum[:]), nil
}

// Snapshot codec names, as reported by SnapshotInfo.Codec.
const (
	// SnapshotCodecJSON is the versions-1-and-2 JSON codec.
	SnapshotCodecJSON = "json"
	// SnapshotCodecBinary is the version-3 columnar binary codec.
	SnapshotCodecBinary = "binary"
)

// SnapshotInfo describes a verified snapshot uniformly across every
// codec version; see VerifySnapshotFile.
type SnapshotInfo struct {
	Path    string `json:"path,omitempty"`
	Codec   string `json:"codec"`
	Version int    `json:"version"`
	Facts   int    `json:"facts"`
	// Shards is the stored shard count: 1 for JSON snapshots (a single
	// store), the segment count for binary ones.
	Shards   int    `json:"shards"`
	Checksum string `json:"checksum,omitempty"`
}

// ChecksumStatus renders the integrity outcome uniformly: "verified"
// when the codec carries a checksum that matched, "none" for version-1
// files that predate checksums. (A mismatch never reaches an info — the
// verify path errors instead.)
func (i SnapshotInfo) ChecksumStatus() string {
	if i.Checksum == "" {
		return "none"
	}
	return "verified"
}

// WriteSnapshot serialises the store's facts in the JSON codec. The file
// does not record a shard layout: equal facts write equal bytes.
func (s *Sharded) WriteSnapshot(w io.Writer) error {
	facts := s.Facts()
	sum, err := factsChecksum(facts)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snapshotFile{
		Format:   SnapshotFormat,
		Version:  SnapshotVersion,
		Count:    len(facts),
		Checksum: sum,
		Facts:    facts,
	})
}

// validate checks a decoded snapshot's header, count and (v2+) checksum,
// returning its description. Shared by ReadSnapshot and the verify path.
func (sf *snapshotFile) validate() (SnapshotInfo, error) {
	info := SnapshotInfo{Codec: SnapshotCodecJSON, Version: sf.Version, Facts: len(sf.Facts), Shards: 1, Checksum: sf.Checksum}
	if sf.Format != SnapshotFormat {
		return info, fmt.Errorf("store: not an akb snapshot (format %q, want %q)", sf.Format, SnapshotFormat)
	}
	if sf.Version < 1 || sf.Version > SnapshotVersion {
		return info, fmt.Errorf("store: unsupported snapshot version %d (this build reads 1..%d)", sf.Version, SnapshotVersion)
	}
	if sf.Count != len(sf.Facts) {
		return info, fmt.Errorf("store: snapshot truncated: header says %d facts, found %d", sf.Count, len(sf.Facts))
	}
	if sf.Version >= 2 {
		if sf.Checksum == "" {
			return info, fmt.Errorf("store: snapshot version %d has no checksum", sf.Version)
		}
		sum, err := factsChecksum(sf.Facts)
		if err != nil {
			return info, err
		}
		if sum != sf.Checksum {
			return info, fmt.Errorf("store: snapshot checksum mismatch: header %s, payload %s — file is corrupt", sf.Checksum, sum)
		}
	}
	return info, nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot into a one-shard
// store. The snapshot stores only facts; indexes are always derived, so
// codec and index layout can evolve independently. Version 2 files are
// checksum-verified; version 1 files (no checksum) still load.
func ReadSnapshot(r io.Reader) (*Sharded, error) {
	var sf snapshotFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if _, err := sf.validate(); err != nil {
		return nil, err
	}
	return New(sf.Facts), nil
}

// WriteSnapshotFile writes the snapshot to path atomically: the bytes go
// to a temporary file in the target directory, are fsynced, and the temp
// file is renamed over path only once it is durably complete. A crash at
// any point leaves either the previous file intact or a stray .tmp file
// that can never pass verification as the target — never a torn or
// half-new snapshot under the real name.
func (s *Sharded) WriteSnapshotFile(path string) error {
	return atomicWriteFile(path, s.WriteSnapshot)
}

// syncWriteCloser is the slice of *os.File the snapshot writer needs;
// tests substitute failing fakes to pin the error-joining contract.
type syncWriteCloser interface {
	io.WriteCloser
	Sync() error
}

// writeSyncClose runs write against f, fsyncs, and closes it, joining
// every error instead of letting a failed close vanish behind a failed
// write (or vice versa) — the fd-leak/error-swallow bug the old
// WriteSnapshotFile had.
func writeSyncClose(f syncWriteCloser, write func(io.Writer) error) error {
	werr := write(f)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	return errors.Join(werr, serr, f.Close())
}

// isBinarySnapshot reports whether the file starts with the binary
// codec's magic. JSON snapshots start with '{', so the 8-byte magic
// disambiguates every valid snapshot; a file too short to carry either
// is simply "not binary" and fails in the JSON decoder with a clear
// error.
func isBinarySnapshot(data []byte) bool { return bytes.HasPrefix(data, []byte(binMagic)) }

// OpenSnapshotFile loads any snapshot version into a servable store (the
// Querier is always a *Sharded). shards picks the serving layout: 0 keeps
// the snapshot's own layout (a binary file's stored segments;
// DefaultShards for a JSON file), any other value partitions into that
// many shards — 1 being the flat store. The returned info describes the
// file as stored, not the serving layout. The file is read whole, in one
// read sized by stat.
func OpenSnapshotFile(path string, shards int) (Querier, SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SnapshotInfo{Path: path}, err
	}
	if isBinarySnapshot(data) {
		sh, err := decodeBinarySnapshot(data)
		if err != nil {
			return nil, SnapshotInfo{Path: path}, fmt.Errorf("%s: %w", path, err)
		}
		info := SnapshotInfo{
			Path: path, Codec: SnapshotCodecBinary, Version: BinarySnapshotVersion,
			Facts: sh.Len(), Shards: sh.ShardCount(),
		}
		if shards > 0 && shards != sh.ShardCount() {
			sh = NewSharded(sh.Facts(), shards)
		}
		return sh, info, nil
	}
	var sf snapshotFile
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&sf); err != nil {
		return nil, SnapshotInfo{Path: path}, fmt.Errorf("%s: store: decode snapshot: %w", path, err)
	}
	info, err := sf.validate()
	info.Path = path
	if err != nil {
		return nil, info, fmt.Errorf("%s: %w", path, err)
	}
	return NewSharded(sf.Facts, shards), info, nil
}

// VerifySnapshotFile checks a snapshot's integrity — header, fact count
// and checksum, whichever codec version wrote it — without building
// indexes, and reports what it found uniformly (codec, version, fact
// count, shard count, checksum). It backs `akb snapshot verify|info` and
// the pre-swap validation of the server's hot reload.
func VerifySnapshotFile(path string) (SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SnapshotInfo{Path: path}, err
	}
	var info SnapshotInfo
	if isBinarySnapshot(data) {
		info, err = verifyBinarySnapshot(data)
	} else {
		var sf snapshotFile
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&sf); err != nil {
			return SnapshotInfo{Path: path}, fmt.Errorf("%s: store: decode snapshot: %w", path, err)
		}
		info, err = sf.validate()
	}
	info.Path = path
	if err != nil {
		return info, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}
