package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"akb/internal/mapreduce"
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
// promises instead of redoing it — string table and keys strictly
// increasing (integer compares), every string referenced, shard placement,
// declared counts, minimal varints, no trailing bytes — and hands the facts
// to the index builder as they are. The checksum is computed beside that
// work, on a goroutine of its own, and gates it: no store is returned unless
// the trailer matches, and a mismatch is the error whatever else the decode
// found. A failed check is a format error, never a panic; an accepted file
// re-encodes to the same bytes. No fact is made: the decoder fills the
// store's columns — the keys' IDs, the confidences and source counts, the
// ancestors' IDs — and a Fact is made from them only when a read hands one
// out.
//
// The string table is the store's own (Sharded.names): a decoded store keeps
// the file's, verbatim, with the IDs the decoder fed its indexes, and
// NewSharded numbers its strings once, at construction. Writing is therefore
// the header, the held table and the columns read by number — rank, valueID,
// attrNo, classNo and valueNo through each index's ids, conf and sources —
// with no sort. As the checksum is computed beside the decode, it is computed
// beside the encode: a helper goroutine encodes the shard segments and hands
// each to the writer, while the caller encodes the string table and then
// hashes each segment as it arrives (WriteBinarySnapshot).
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
	// binConfExponent is the exponent field of a confidence's bits: all ones
	// in a NaN or an infinity, which neither side of the codec lets through.
	binConfExponent = 0x7FF << 52
)

// WriteBinarySnapshot serialises the sharded store in the version-3
// binary layout. The encoding is deterministic: equal stores produce
// byte-identical snapshots. No fact is made and no string looked up: the
// store holds its string table, and every column is a number that leads into
// it (rank, valueID, and attrNo, classNo and valueNo through their index's
// ids) or is what the file holds (conf, sources).
//
// The file is written the way the decoder reads it, on two goroutines: this
// one encodes the header and the string table while a helper encodes the
// shard segments in file order. The helper hands w the head, then each
// segment as soon as it is encoded, one Write a part, and hands the same
// segment to this goroutine, which runs SHA-256 over each part in file order
// as it arrives and ends the file with the trailer. A store holding a
// non-finite confidence or a negative source count is refused before
// anything reaches w. A failed Write is returned; on every return the helper
// has been waited for, and a panic on it is raised again on the caller's
// goroutine as a *mapreduce.Panic.
func (s *Sharded) WriteBinarySnapshot(w io.Writer) error {
	if err := s.checkColumns(); err != nil {
		return err
	}
	strs := s.names.strs
	// Sized for two-byte string lengths, one-byte source counts and
	// three-byte ancestor IDs; a part that outgrows its share of its buffer
	// still encodes, by growing out of it.
	size := binHeaderLen
	for _, str := range strs {
		size += len(str) + 2
	}
	hdr := make([]byte, 0, size)
	// No part changes once it is handed over: the helper writes what this
	// goroutine hashes. head holds the one head and segs every segment, so
	// the helper waits for nothing but the head, and this goroutine for the
	// next segment.
	head := make(chan []byte, 1)
	segs := make(chan []byte, len(s.shards))
	var werr error
	var caught *mapreduce.Panic
	go func() {
		defer close(segs)
		caught = catch(func() {
			n := 0
			for _, sh := range s.shards {
				n += sh.segmentSize()
			}
			buf := make([]byte, n)
			if _, werr = w.Write(<-head); werr != nil {
				return
			}
			off := 0
			for _, sh := range s.shards {
				end := off + sh.segmentSize()
				seg := sh.appendSegment(buf[off:off:end])
				off = end
				segs <- seg
				if _, werr = w.Write(seg); werr != nil {
					return
				}
			}
		})
	}()
	be := binary.BigEndian
	hdr = append(hdr, binMagic...)
	hdr = be.AppendUint32(hdr, BinarySnapshotVersion)
	hdr = be.AppendUint32(hdr, uint32(len(s.shards)))
	hdr = be.AppendUint64(hdr, uint64(s.Len()))
	hdr = be.AppendUint64(hdr, uint64(len(strs)))
	for _, str := range strs {
		hdr = binary.AppendUvarint(hdr, uint64(len(str)))
		hdr = append(hdr, str...)
	}
	head <- hdr
	sum := sha256.New()
	sum.Write(hdr)
	for seg := range segs { // until the helper has closed it: waited for
		sum.Write(seg)
	}
	if caught != nil {
		panic(caught) // on the caller's goroutine, where it can be recovered
	}
	if werr == nil {
		_, werr = w.Write(sum.Sum(hdr[:0])) // w has let go of hdr
	}
	if werr != nil {
		return fmt.Errorf("store: write binary snapshot: %w", werr)
	}
	return nil
}

// checkColumns refuses a store no snapshot may hold: a non-finite
// confidence, which neither side of the codec lets through, or a negative
// source count, which a uvarint cannot spell. New refuses both; a store's
// columns can still be given them after it was built.
func (s *Sharded) checkColumns() error {
	for _, sh := range s.shards {
		for i, conf := range sh.conf {
			if math.Float64bits(conf)&binConfExponent == binConfExponent {
				return fmt.Errorf("store: non-finite confidence %v for %q", conf, sh.entity(int32(i)))
			}
		}
		for i, n := range sh.sources {
			if n < 0 {
				return fmt.Errorf("store: negative source count %d for %q", n, sh.entity(int32(i)))
			}
		}
	}
	return nil
}

// segmentSize is what the shard's segment takes in the file with one-byte
// source counts and three-byte ancestor IDs.
func (sh *shard) segmentSize() int {
	return 8 + sh.len()*binMinFactLen + 3*len(sh.anc)
}

// appendSegment appends the shard's segment of the file to buf — its fact
// count, then its columns — and returns the extended buffer. The columns
// have passed checkColumns.
func (sh *shard) appendSegment(buf []byte) []byte {
	be := binary.BigEndian
	attrID, classID, listID := sh.byAttr.ids, sh.byClass.ids, sh.byValue.ids
	buf = be.AppendUint64(buf, uint64(sh.len()))
	for i := range sh.valueID {
		buf = be.AppendUint32(buf, sh.rank[sh.runOf[i]])
		buf = be.AppendUint32(buf, attrID[sh.attrNo[i]])
		buf = be.AppendUint32(buf, sh.valueID[i])
		buf = be.AppendUint32(buf, classID[sh.classNo[i]])
	}
	for _, conf := range sh.conf {
		buf = be.AppendUint64(buf, math.Float64bits(conf))
	}
	for _, n := range sh.sources {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	for i := range sh.valueID {
		anc := sh.valueNo[sh.first[i]+1 : sh.first[i+1]]
		buf = binary.AppendUvarint(buf, uint64(len(anc)))
		for _, no := range anc {
			buf = binary.AppendUvarint(buf, uint64(listID[no]))
		}
	}
	return buf
}

// binKey stands for one index key while the table is sorted: the key's
// first eight bytes as a big-endian integer (zero-padded), which orders
// keys as their bytes do wherever two differ in them, and the key's slot.
// It holds no pointer, so sorting it is plain copying.
type binKey struct {
	prefix uint64
	slot   uint32
}

func binPrefix(s string) (p uint64) {
	for i := 0; i < min(len(s), 8); i++ {
		p |= uint64(s[i]) << (56 - 8*i)
	}
	return p
}

// sortedUnion is NewSharded's string table: the union of the shards'
// distinct strings (distinctStrings), sorted, each once. Every shard's
// strings get a slot, the slots are sorted by name, and one walk over them
// drops the repeats — a value listed in several shards, a name that is an
// attribute here and a value there.
//
// The IDs are u32s below NoID: a store of more slots than that cannot be
// numbered. (Such a store, some 2^30 facts, does not fit in memory to begin
// with.)
func sortedUnion(seen [][]string) []string {
	n := 0
	for _, strs := range seen {
		n += len(strs)
	}
	if uint64(n) >= NoID {
		panic(fmt.Sprintf("store: %d strings exceed the u32 ID space", n))
	}
	names := make([]string, 0, n)
	for _, strs := range seen {
		names = append(names, strs...)
	}
	pairs := make([]binKey, 2*n) // the slots, and the radix passes' other side
	sorted := pairs[:n]
	for slot := range sorted {
		sorted[slot] = binKey{binPrefix(names[slot]), uint32(slot)}
	}
	sorted = binSortKeys(sorted, pairs[n:], names)
	strs := make([]string, 0, n)
	for i, k := range sorted {
		if i == 0 || k.prefix != sorted[i-1].prefix || names[k.slot] != names[sorted[i-1].slot] {
			strs = append(strs, names[k.slot])
		}
	}
	return strs
}

// binSortKeys orders a by the keys its slots stand for and returns the
// sorted slice, which is a or tmp (as long as a): least-significant-byte
// radix passes over the prefixes, skipping a byte all keys agree in, then a
// comparison of the names inside every run of equal prefixes — keys that
// repeat, or differ only past their eighth byte, or are zero-padded to the
// same integer ("a" and "a\x00").
func binSortKeys(a, tmp []binKey, names []string) []binKey {
	var count [8][256]uint32
	for _, k := range a {
		for b := range count {
			count[b][byte(k.prefix>>(8*b))]++
		}
	}
	for b := range count {
		c := &count[b]
		if len(a) > 0 && c[byte(a[0].prefix>>(8*b))] == uint32(len(a)) {
			continue
		}
		sum := uint32(0)
		for v, n := range c {
			c[v], sum = sum, sum+n
		}
		for _, k := range a {
			v := byte(k.prefix >> (8 * b))
			tmp[c[v]] = k
			c[v]++
		}
		a, tmp = tmp, a
	}
	for lo, hi := 0, 0; lo < len(a); lo = hi {
		// Most such runs are one key, once or — a value listed by several
		// shards — repeated: nothing to order.
		same := true
		for hi = lo + 1; hi < len(a) && a[hi].prefix == a[lo].prefix; hi++ {
			same = same && names[a[hi].slot] == names[a[lo].slot]
		}
		if !same {
			slices.SortFunc(a[lo:hi], func(x, y binKey) int { return strings.Compare(names[x.slot], names[y.slot]) })
		}
	}
	return a
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

	strs []string // the string table, once read
	used []bool   // per string: some fact references it
	// no is the scratch columns the shard being decoded numbers its lists
	// in; clean between shards.
	no [3][]int32
}

// binShard is shard si as the decoder hands it to assemble: its columns,
// verified canonical, its runs with the rank column, and the three builders,
// fed.
type binShard struct {
	si int
	feed
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

// binVerify checks magic, checksum and version of a whole snapshot read from
// rd and parses its fixed header: the verify path, which decodes nothing
// else. The file streams through SHA-256 in reads of one fixed buffer, the
// last binTrailerLen bytes read held back as the trailer, so a file of any
// size is verified in the same memory, with the verdicts binFrame,
// binChecksum and binParseHeader give on the file in memory. It returns the
// trailer.
func binVerify(rd io.Reader) (binHeader, []byte, error) {
	const held = binTrailerLen
	// buf[held-kept:held] is what was read and not yet hashed, the next
	// read lands at buf[held:].
	buf := make([]byte, held+64<<10)
	var head [binHeaderLen]byte
	sum := sha256.New()
	size, kept := 0, 0
	for {
		n, err := io.ReadFull(rd, buf[held:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return binHeader{}, nil, err
		}
		if size < binHeaderLen {
			copy(head[size:], buf[held:held+n])
			if !bytes.HasPrefix(head[:min(size+n, binHeaderLen)], []byte(binMagic)) {
				return binHeader{}, nil, errNotV3
			}
		}
		size += n
		read := buf[held-kept : held+n]
		if cut := len(read) - held; cut > 0 {
			sum.Write(read[:cut])
			read = read[cut:]
		}
		kept = copy(buf[held-len(read):held], read)
		if err != nil {
			break
		}
	}
	if size < binHeaderLen+binTrailerLen {
		return binHeader{}, nil, fmt.Errorf("store: binary snapshot truncated: %d bytes, need at least %d", size, binHeaderLen+binTrailerLen)
	}
	trailer := buf[:held]
	if err := binMatch(sum.Sum(nil), trailer); err != nil {
		return binHeader{}, nil, err
	}
	hdr, err := binParseHeader(head[:], size-binTrailerLen)
	return hdr, trailer, err
}

// binFrame refuses what cannot be a version-3 snapshot at all — no magic, or
// too short for a header and a trailer — and splits the rest into the
// payload and its trailer.
func binFrame(data []byte) (payload, trailer []byte, err error) {
	if !bytes.HasPrefix(data, []byte(binMagic)) {
		return nil, nil, errNotV3
	}
	if len(data) < binHeaderLen+binTrailerLen {
		return nil, nil, fmt.Errorf("store: binary snapshot truncated: %d bytes, need at least %d", len(data), binHeaderLen+binTrailerLen)
	}
	return data[:len(data)-binTrailerLen], data[len(data)-binTrailerLen:], nil
}

// binChecksum holds the trailer to the payload's SHA-256.
func binChecksum(payload, trailer []byte) error {
	sum := sha256.Sum256(payload)
	return binMatch(sum[:], trailer)
}

// binMatch holds the trailer to the payload's SHA-256, sum.
func binMatch(sum, trailer []byte) error {
	if !bytes.Equal(sum, trailer) {
		return fmt.Errorf("store: binary snapshot checksum mismatch: trailer %s, payload %s — file is corrupt",
			hex.EncodeToString(trailer), hex.EncodeToString(sum))
	}
	return nil
}

// binParseHeader checks the version in head, the fixed header that opens a
// framed payload of n bytes, and parses it.
func binParseHeader(head []byte, n int) (binHeader, error) {
	var hdr binHeader
	be := binary.BigEndian
	b := head[len(binMagic):binHeaderLen]
	version := be.Uint32(b[0:4])
	if version != BinarySnapshotVersion {
		return hdr, fmt.Errorf("store: unsupported binary snapshot version %d (this build reads %d)", version, BinarySnapshotVersion)
	}
	shards, facts, strs := uint64(be.Uint32(b[4:8])), be.Uint64(b[8:16]), be.Uint64(b[16:24])
	if shards == 0 {
		return hdr, fmt.Errorf("store: binary snapshot declares 0 shards")
	}
	// A shard occupies at least its 8-byte count, a fact binMinFactLen
	// bytes, a string its length byte: a header that declares more than
	// the file can hold is refused here, before the counts size anything.
	// String IDs are entity ranks (see shard), which stay below noRank.
	if left := uint64(n - binHeaderLen); shards > left/8 || facts > left/binMinFactLen || strs > left || strs > noRank {
		return hdr, fmt.Errorf("store: binary snapshot header declares %d shards, %d facts, %d strings in %d bytes", shards, facts, strs, left)
	}
	hdr.shards, hdr.facts, hdr.strings = int(shards), int(facts), int(strs)
	return hdr, nil
}

// ReadBinarySnapshot loads a version-3 snapshot written by
// WriteBinarySnapshot and indexes every shard. The checksum over the whole
// file is verified while the payload is decoded, and a torn or bit-flipped
// snapshot is refused as corrupt whatever the decode made of it; see the
// codec comment for what else is checked.
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

func decodeBinarySnapshot(data []byte) (s *Sharded, err error) {
	payload, trailer, err := binFrame(data)
	if err != nil {
		return nil, err
	}
	// The trailer is checked on a goroutine of its own while this one
	// decodes, and it gates the result: whatever the decode returns, a
	// mismatch replaces it. The check has been waited for on every return.
	checked := make(chan error, 1)
	go func() { checked <- binChecksum(payload, trailer) }()
	defer func() {
		if cerr := <-checked; cerr != nil {
			s, err = nil, cerr
		}
	}()
	hdr, err := binParseHeader(payload, len(payload))
	if err != nil {
		return nil, err
	}
	d := &binReader{data: payload, off: binHeaderLen}
	if err := d.stringTable(hdr.strings); err != nil {
		return nil, err
	}
	shards := make([]*shard, hdr.shards)
	// A decoded shard shares nothing with the next one but the string table,
	// which nobody writes any more: one goroutine builds the name table over
	// it, then assembles shard i while this one, which keeps the reader and
	// makes every check, decodes shard i+1. It ends, and has been waited for,
	// on every return.
	var names *nameTable
	decoded := make(chan binShard)
	assembled := make(chan *mapreduce.Panic, 1)
	go func() {
		caught := catch(func() { names = newNameTable(d.strs) })
		for sh := range decoded {
			if caught == nil { // after a panic, only drain
				caught = catch(func() { shards[sh.si] = sh.assemble(names) })
			}
		}
		assembled <- caught
	}()
	err = d.shards(hdr.facts, len(shards), decoded)
	if caught := <-assembled; caught != nil {
		panic(caught) // on the caller's goroutine, where it can be recovered
	}
	if err != nil {
		return nil, err
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("store: binary snapshot has %d trailing bytes", d.left())
	}
	for id, used := range d.used {
		if !used {
			return nil, fmt.Errorf("store: binary snapshot string %d (%q) is referenced by no fact", id, d.strs[id])
		}
	}
	// The file's table — sorted, each string once and each one used — is the
	// store's.
	return newSharded(shards, names), nil
}

// catch runs fn and returns its panic instead of raising it: a panic on the
// assembling goroutine belongs to the goroutine that called the decoder.
func catch(fn func()) (caught *mapreduce.Panic) {
	defer func() {
		if r := recover(); r != nil {
			caught = &mapreduce.Panic{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// shards decodes the n shards, sending each on as soon as it is read, and
// checks that together they hold exactly the total facts the header
// declared. It closes decoded, however it returns.
func (d *binReader) shards(total, n int, decoded chan<- binShard) error {
	defer close(decoded)
	left := total
	for si := 0; si < n; si++ {
		nb, err := d.take(8)
		if err != nil {
			return err
		}
		size := binary.BigEndian.Uint64(nb)
		if size > uint64(left) {
			return fmt.Errorf("store: binary snapshot shard %d overflows declared fact count %d", si, total)
		}
		left -= int(size)
		sh := binShard{si: si, feed: newFeed(int(size), int(size), d.no)}
		if err := d.shard(n, &sh); err != nil {
			return err
		}
		decoded <- sh
	}
	if left != 0 {
		return fmt.Errorf("store: binary snapshot truncated: header says %d facts, found %d", total, total-left)
	}
	return nil
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
	d.strs, d.used, d.no = make([]string, n), make([]bool, n), scratch(n)
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

// shard decodes the columns of sh (of n shards; its columns already sized to
// the declared count) and checks that they arrive canonical: keys strictly
// increasing, compared as the two big-endian integers they are. String IDs
// are in string order over the whole file, so a run ends where the entity ID
// changes and that ID is the entity's rank — read off the keys into sh.runs
// and sh.rank, where NewSharded compares the names (build) — and every index
// key is already a number: the builders are fed the IDs in the order build
// feeds them (attribute and class with the key, value and ancestors together
// in the last column).
func (d *binReader) shard(n int, sh *binShard) error {
	be := binary.BigEndian
	si, facts := sh.si, len(sh.conf)
	// facts is at most the header's count, which binParseHeader bounded: the
	// products below cannot overflow.
	keys, err := d.take(facts * binKeyWidth)
	if err != nil {
		return err
	}
	var prevHi, prevLo uint64
	for i := 0; i < facts; i++ {
		hi, lo := be.Uint64(keys[i*binKeyWidth:]), be.Uint64(keys[i*binKeyWidth+8:])
		if i > 0 && (hi < prevHi || hi == prevHi && lo <= prevLo) {
			return fmt.Errorf("store: binary snapshot shard %d keys are not strictly increasing at fact %d", si, i)
		}
		e, a, v, c := hi>>32, hi&math.MaxUint32, lo>>32, lo&math.MaxUint32
		if top := max(e, a, v, c); top >= uint64(len(d.strs)) {
			return fmt.Errorf("store: binary snapshot references string %d of %d", top, len(d.strs))
		}
		sh.valueID[i] = uint32(v)
		d.used[e], d.used[a], d.used[v], d.used[c] = true, true, true, true
		if i == 0 || hi>>32 != prevHi>>32 {
			if got := ShardOf(d.strs[e], n); got != si {
				return fmt.Errorf("store: binary snapshot misplaces entity %q in shard %d (hashes to %d)", d.strs[e], si, got)
			}
			sh.runs, sh.rank = append(sh.runs, span{int32(i), int32(i)}), append(sh.rank, uint32(e))
		}
		sh.runs[len(sh.runs)-1].hi = int32(i) + 1
		sh.attrs.addID(uint32(a), int32(i))
		sh.classes.addID(uint32(c), int32(i))
		prevHi, prevLo = hi, lo
	}
	confs, err := d.take(facts * 8)
	if err != nil {
		return err
	}
	for i := range sh.conf {
		bits := be.Uint64(confs[i*8:])
		if bits&binConfExponent == binConfExponent {
			return fmt.Errorf("store: binary snapshot shard %d fact %d has the non-finite confidence %v", si, i, math.Float64frombits(bits))
		}
		sh.conf[i] = math.Float64frombits(bits)
	}
	for i := range sh.sources {
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v > math.MaxInt {
			return fmt.Errorf("store: binary snapshot source count %d overflows", v)
		}
		sh.sources[i] = int(v)
	}
	for i, value := range sh.valueID {
		sh.values.addID(value, int32(i))
		cnt, err := d.uvarint()
		if err != nil {
			return err
		}
		// Every ancestor read is at least a byte of the file: the postings
		// it adds are bounded by the file's size.
		for ; cnt > 0; cnt-- {
			id, err := d.uvarint()
			if err != nil {
				return err
			}
			if id >= uint64(len(d.strs)) {
				return fmt.Errorf("store: binary snapshot references string %d of %d", id, len(d.strs))
			}
			d.used[id] = true
			sh.values.addID(uint32(id), int32(i))
		}
	}
	sh.forget()
	return nil
}

// atomicWriteFile writes via a temp file in the target directory, fsyncs
// and renames.
func atomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := createTemp(path + ".tmp-")
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

// createTemp creates a new file named prefix plus a random number, with the
// mode os.Create gives a file — 0666 before the umask. os.CreateTemp's 0600
// would be the published snapshot's: the rename keeps it, and a server under
// another account than the pipeline's could not open the file.
func createTemp(prefix string) (*os.File, error) {
	for try := 0; ; try++ {
		name := prefix + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}
