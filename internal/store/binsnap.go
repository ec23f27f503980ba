package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// The snapshot codec (version 3, the only one): a compact columnar layout.
//
//	magic   "akbsnap3"                                  8 bytes
//	header  version u32 | shards u32 | facts u64 | strings u64   (big-endian)
//	strings sorted unique string table: uvarint len + raw bytes each
//	shard×N u64 fact count, then columns:
//	          keys        16 bytes/fact: entity,attr,value,class u32 IDs
//	          confidence  8 bytes/fact: IEEE-754 bits
//	          sources     uvarint/fact
//	          ancestors   uvarint count + uvarint IDs per fact
//	trailer sha256 over every preceding byte                32 bytes
//
// String IDs are assigned in sorted-string order, so the fixed-width
// big-endian key tuples sort bytewise exactly like the store's canonical
// (entity, attr, value, class) fact order — the sort-order-preserving
// key encoding janus-datalog uses for its storage layer. A shard's
// entity index *is* that order (see shard), so a shard's facts come off
// the file ready to index. The reader therefore verifies what the format
// promises instead of redoing it — checksum first, then string table and
// keys strictly increasing (integer compares), every string referenced,
// shard placement, declared counts, minimal varints, no trailing bytes —
// and hands the facts to the index builder as they are. A failed check is
// a format error, never a panic; an accepted file re-encodes to the same
// bytes. Every fact is still materialised: the layout leaves room for a
// zero-copy reader without a codec bump.
//
// Facts are segmented per shard by entity hash (ShardOf), so a loader
// can reconstruct the sharded store without re-partitioning and a future
// multi-process deployment can ship individual segments to shard owners.
const (
	// BinarySnapshotVersion is the codec version snapshots carry. Versions
	// 1 and 2 were JSON files; they are refused (see errNotV3).
	BinarySnapshotVersion = 3

	binMagic      = "akbsnap3"
	binHeaderLen  = len(binMagic) + 4 + 4 + 8 + 8
	binTrailerLen = sha256.Size
	binKeyWidth   = 16
	// binMinFactLen is the fewest bytes a fact occupies: its key, its
	// confidence and one byte each in the sources and ancestors columns.
	binMinFactLen = binKeyWidth + 8 + 1 + 1
	// binAncestorChunk is how many ancestor slots the reader allocates at
	// a time; facts' ancestor lists are windows of such chunks.
	binAncestorChunk = 4096
)

// WriteBinarySnapshot serialises the sharded store in the version-3
// binary layout. The encoding is deterministic: equal stores produce
// byte-identical snapshots. The file is encoded in memory, hashed once
// and handed to w in a single Write.
func (s *Sharded) WriteBinarySnapshot(w io.Writer) error {
	strs, ids, err := binStringTable(s)
	if err != nil {
		return err
	}
	// Sized for one-byte source counts and three-byte ancestor IDs; a
	// store outside that still encodes, by growing the buffer.
	size := binHeaderLen + binTrailerLen
	for _, str := range strs {
		size += len(str) + 2
	}
	for _, sh := range s.shards {
		size += 8 + len(sh.facts)*binMinFactLen + 3*(len(sh.byValue.arena)-len(sh.facts))
	}
	be := binary.BigEndian
	buf := make([]byte, 0, size)
	buf = append(buf, binMagic...)
	buf = be.AppendUint32(buf, BinarySnapshotVersion)
	buf = be.AppendUint32(buf, uint32(len(s.shards)))
	buf = be.AppendUint64(buf, uint64(s.Len()))
	buf = be.AppendUint64(buf, uint64(len(strs)))
	for _, str := range strs {
		buf = binary.AppendUvarint(buf, uint64(len(str)))
		buf = append(buf, str...)
	}
	for _, sh := range s.shards {
		facts := sh.facts
		buf = be.AppendUint64(buf, uint64(len(facts)))
		var entity, class uint32
		for i := range facts {
			f := &facts[i]
			// Entity and class repeat down an entity's run: look them up
			// when they change, not per fact.
			if i == 0 || f.Entity != facts[i-1].Entity {
				entity = ids[f.Entity]
			}
			if i == 0 || f.Class != facts[i-1].Class {
				class = ids[f.Class]
			}
			buf = be.AppendUint32(buf, entity)
			buf = be.AppendUint32(buf, ids[f.Attr])
			buf = be.AppendUint32(buf, ids[f.Value])
			buf = be.AppendUint32(buf, class)
		}
		for i := range facts {
			buf = be.AppendUint64(buf, math.Float64bits(facts[i].Confidence))
		}
		for i := range facts {
			if facts[i].Sources < 0 {
				return fmt.Errorf("store: negative source count %d for %q", facts[i].Sources, facts[i].Entity)
			}
			buf = binary.AppendUvarint(buf, uint64(facts[i].Sources))
		}
		for i := range facts {
			buf = binary.AppendUvarint(buf, uint64(len(facts[i].Ancestors)))
			for _, anc := range facts[i].Ancestors {
				buf = binary.AppendUvarint(buf, uint64(ids[anc]))
			}
		}
	}
	sum := sha256.Sum256(buf)
	if _, err := w.Write(append(buf, sum[:]...)); err != nil {
		return fmt.Errorf("store: write binary snapshot: %w", err)
	}
	return nil
}

// binStringTable collects every distinct string of the store — entities,
// classes, attributes, values, ancestors — sorted, and maps each to its
// ID. Sorted assignment is what makes the fixed-width keys sortable. The
// distinct strings are exactly the keys of the shards' indexes (plus the
// empty class, which is not indexed), so they are gathered from those:
// one insertion per distinct key instead of five per fact.
func binStringTable(s *Sharded) ([]string, map[string]uint32, error) {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.byEntity) + len(sh.byValue.list)
	}
	ids := make(map[string]uint32, n)
	for _, sh := range s.shards {
		for str := range sh.byEntity {
			ids[str] = 0
		}
		for _, p := range []postings{sh.byAttr, sh.byClass, sh.byValue} {
			for str := range p.list {
				ids[str] = 0
			}
		}
		if len(sh.byClass.arena) < len(sh.facts) {
			ids[""] = 0
		}
	}
	if uint64(len(ids)) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("store: %d distinct strings exceed the u32 ID space", len(ids))
	}
	strs := make([]string, 0, len(ids))
	for str := range ids {
		strs = append(strs, str)
	}
	sort.Strings(strs)
	for i, str := range strs {
		ids[str] = uint32(i)
	}
	return strs, ids, nil
}

// WriteBinarySnapshotFile writes the snapshot to path atomically: the
// bytes go to a temporary file in the target directory, are fsynced, and
// the temp file is renamed over path only once it is durably complete. A
// crash at any point leaves either the previous file intact or a stray
// .tmp file that can never pass verification as the target — never a
// torn or half-new snapshot under the real name.
func (s *Sharded) WriteBinarySnapshotFile(path string) error {
	return atomicWriteFile(path, s.WriteBinarySnapshot)
}

// binReader walks a fully-read snapshot with bounds-checked cursors so a
// crafted file — anyone can append a valid checksum — fails with a format
// error, never misparses or panics.
type binReader struct {
	data []byte
	off  int

	strs  []string // the string table, once read
	used  []bool   // per string: some fact references it
	arena []string // unused tail of the current ancestor chunk
}

// left is the number of unread bytes. Every count the file declares is
// held against it before anything is allocated for that count.
func (r *binReader) left() int { return len(r.data) - r.off }

func (r *binReader) take(n int) ([]byte, error) {
	if n < 0 || n > r.left() {
		return nil, fmt.Errorf("store: binary snapshot truncated at offset %d (need %d more bytes)", r.off, n)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// uvarint reads one varint in its shortest encoding — the only one the
// writer produces, so accepting a padded one would break decode∘encode.
func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || n > 1 && r.data[r.off+n-1] == 0 {
		return 0, fmt.Errorf("store: binary snapshot: bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// binHeader is the parsed fixed header of a binary snapshot.
type binHeader struct {
	shards  int
	facts   int
	strings int
}

// errNotV3 refuses every file that does not start with the version-3
// magic — the JSON snapshots of versions 1 and 2, an empty file, anything
// else — before any of it is parsed. No importer is kept: a snapshot is
// regenerated from its seed in seconds.
var errNotV3 = errors.New(`store: not a v3 snapshot (the file does not start with "` + binMagic +
	`"; JSON snapshots are no longer read): regenerate it with "akb pipeline -snapshot <file>"`)

// binVerify checks magic, checksum and version of a whole snapshot and
// parses the fixed header. Shared by the reader and the verify path.
func binVerify(data []byte) (binHeader, *binReader, error) {
	var hdr binHeader
	if !bytes.HasPrefix(data, []byte(binMagic)) {
		return hdr, nil, errNotV3
	}
	if len(data) < binHeaderLen+binTrailerLen {
		return hdr, nil, fmt.Errorf("store: binary snapshot truncated: %d bytes, need at least %d", len(data), binHeaderLen+binTrailerLen)
	}
	payload, trailer := data[:len(data)-binTrailerLen], data[len(data)-binTrailerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], trailer) {
		return hdr, nil, fmt.Errorf("store: binary snapshot checksum mismatch: trailer %s, payload %s — file is corrupt",
			hex.EncodeToString(trailer), hex.EncodeToString(sum[:]))
	}
	r := &binReader{data: payload, off: len(binMagic)}
	be := binary.BigEndian
	b, _ := r.take(4 + 4 + 8 + 8)
	version := be.Uint32(b[0:4])
	if version != BinarySnapshotVersion {
		return hdr, nil, fmt.Errorf("store: unsupported binary snapshot version %d (this build reads %d)", version, BinarySnapshotVersion)
	}
	shards, facts, strs := uint64(be.Uint32(b[4:8])), be.Uint64(b[8:16]), be.Uint64(b[16:24])
	if shards == 0 {
		return hdr, nil, fmt.Errorf("store: binary snapshot declares 0 shards")
	}
	// A shard occupies at least its 8-byte count, a fact binMinFactLen
	// bytes, a string its length byte: a header that declares more than
	// the file can hold is refused here, before the counts size anything.
	// String IDs stand in for entity ranks (see shard), which are int32.
	if left := uint64(r.left()); shards > left/8 || facts > left/binMinFactLen || strs > left || strs > noRank {
		return hdr, nil, fmt.Errorf("store: binary snapshot header declares %d shards, %d facts, %d strings in %d bytes", shards, facts, strs, left)
	}
	hdr.shards, hdr.facts, hdr.strings = int(shards), int(facts), int(strs)
	return hdr, r, nil
}

// ReadBinarySnapshot loads a version-3 snapshot written by
// WriteBinarySnapshot and indexes every shard. The checksum is verified
// over the whole file before any parsing, so a torn or bit-flipped
// snapshot is rejected up front; see the codec comment for what is
// checked after that.
func ReadBinarySnapshot(rd io.Reader) (*Sharded, error) {
	var buf bytes.Buffer
	if sized, ok := rd.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // one read, no regrowth
	}
	if _, err := buf.ReadFrom(rd); err != nil {
		return nil, fmt.Errorf("store: read binary snapshot: %w", err)
	}
	return decodeBinarySnapshot(buf.Bytes())
}

func decodeBinarySnapshot(data []byte) (*Sharded, error) {
	hdr, d, err := binVerify(data)
	if err != nil {
		return nil, err
	}
	if err := d.stringTable(hdr.strings); err != nil {
		return nil, err
	}
	// Every shard's facts are windows of one array.
	facts := make([]Fact, hdr.facts)
	shards := make([]*shard, hdr.shards)
	for si := range shards {
		nb, err := d.take(8)
		if err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint64(nb)
		if n > uint64(len(facts)) {
			return nil, fmt.Errorf("store: binary snapshot shard %d overflows declared fact count %d", si, hdr.facts)
		}
		part := facts[:n:n]
		facts = facts[n:]
		rank, err := d.shard(si, len(shards), part)
		if err != nil {
			return nil, err
		}
		shards[si] = build(part)
		shards[si].rank = rank
	}
	if len(facts) != 0 {
		return nil, fmt.Errorf("store: binary snapshot truncated: header says %d facts, found %d", hdr.facts, hdr.facts-len(facts))
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("store: binary snapshot has %d trailing bytes", d.left())
	}
	for id, used := range d.used {
		if !used {
			return nil, fmt.Errorf("store: binary snapshot string %d (%q) is referenced by no fact", id, d.strs[id])
		}
	}
	return newSharded(shards), nil
}

// stringTable reads the n strings, all cut from one conversion of the
// table's bytes, and checks they are strictly increasing — which is what
// lets ID order stand in for string order everywhere after.
func (d *binReader) stringTable(n int) error {
	start := d.off
	for i := 0; i < n; i++ {
		l, err := d.uvarint()
		if err != nil {
			return err
		}
		if l > uint64(d.left()) {
			return fmt.Errorf("store: binary snapshot truncated in string %d of %d", i, n)
		}
		d.off += int(l)
	}
	table := string(d.data[start:d.off])
	d.strs, d.used = make([]string, n), make([]bool, n)
	d.off = start
	for i := range d.strs {
		l, _ := d.uvarint()
		d.strs[i] = table[d.off-start : d.off-start+int(l)]
		d.off += int(l)
		if i > 0 && d.strs[i] <= d.strs[i-1] {
			return fmt.Errorf("store: binary snapshot string table is not strictly increasing at string %d", i)
		}
	}
	return nil
}

// shard decodes the columns of shard si of n into facts (already sized to
// the shard's declared count) and checks that they arrive canonical: keys
// strictly increasing, compared as the two big-endian integers they are.
// It returns the shard's rank column: string IDs are in string order over
// the whole file, so each run's entity ID is its entity's rank — read off
// the keys, where NewSharded has to compare the names (rankRuns).
func (d *binReader) shard(si, n int, facts []Fact) (rank []int32, err error) {
	be := binary.BigEndian
	// len(facts) is at most the header's count, which binVerify bounded:
	// the products below cannot overflow.
	keys, err := d.take(len(facts) * binKeyWidth)
	if err != nil {
		return nil, err
	}
	var prevHi, prevLo uint64
	for i := range facts {
		hi, lo := be.Uint64(keys[i*binKeyWidth:]), be.Uint64(keys[i*binKeyWidth+8:])
		if i > 0 && (hi < prevHi || hi == prevHi && lo <= prevLo) {
			return nil, fmt.Errorf("store: binary snapshot shard %d keys are not strictly increasing at fact %d", si, i)
		}
		e, a, v, c := hi>>32, hi&math.MaxUint32, lo>>32, lo&math.MaxUint32
		if top := max(e, a, v, c); top >= uint64(len(d.strs)) {
			return nil, fmt.Errorf("store: binary snapshot references string %d of %d", top, len(d.strs))
		}
		f := &facts[i]
		f.Entity, f.Attr, f.Value, f.Class = d.strs[e], d.strs[a], d.strs[v], d.strs[c]
		d.used[e], d.used[a], d.used[v], d.used[c] = true, true, true, true
		if i == 0 || hi>>32 != prevHi>>32 {
			if got := ShardOf(f.Entity, n); got != si {
				return nil, fmt.Errorf("store: binary snapshot misplaces entity %q in shard %d (hashes to %d)", f.Entity, si, got)
			}
			rank = append(rank, int32(e))
		}
		prevHi, prevLo = hi, lo
	}
	confs, err := d.take(len(facts) * 8)
	if err != nil {
		return nil, err
	}
	for i := range facts {
		facts[i].Confidence = math.Float64frombits(be.Uint64(confs[i*8:]))
	}
	for i := range facts {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt {
			return nil, fmt.Errorf("store: binary snapshot source count %d overflows", v)
		}
		facts[i].Sources = int(v)
	}
	for i := range facts {
		cnt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			continue
		}
		// Each ancestor is at least one byte of what is left to read,
		// which bounds both this list and the chunk allocated for it.
		if cnt > uint64(d.left()) {
			return nil, fmt.Errorf("store: binary snapshot fact claims %d ancestors", cnt)
		}
		if uint64(len(d.arena)) < cnt {
			d.arena = make([]string, max(int(cnt), min(binAncestorChunk, d.left())))
		}
		anc := d.arena[:cnt:cnt]
		d.arena = d.arena[cnt:]
		for j := range anc {
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if id >= uint64(len(d.strs)) {
				return nil, fmt.Errorf("store: binary snapshot references string %d of %d", id, len(d.strs))
			}
			anc[j], d.used[id] = d.strs[id], true
		}
		facts[i].Ancestors = anc
	}
	return rank, nil
}

// atomicWriteFile writes via a temp file in the target directory, fsyncs
// and renames.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = writeSyncClose(f, write); err != nil {
		return fmt.Errorf("store: write snapshot %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
