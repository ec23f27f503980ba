package store

import (
	"context"
	"errors"
	"math"
	"math/bits"
)

// RunRead is one read inside an entity's run by number: Run.Where's
// arguments — an attribute, a class and a value ID, each NoID for a field
// left open, and whether the value is matched verbatim or through the
// hierarchy.
type RunRead struct {
	Attr, Class, Value uint32
	Exact              bool
}

// Products is what CountProducts counts: the sum of the matches' products,
// and the reads a read-per-match count would have opened.
type Products struct {
	// Total is, summed over the matches, the product of the number of
	// facts of the match's entity run each read matches.
	Total int
	// Reads is how many reads counting each match on its own takes: one a
	// read a match, the reads after the first that matches nothing skipped.
	Reads int64
}

// ErrCountOverflow is the error of a count that does not fit in an int.
var ErrCountOverflow = errors.New("store: the count does not fit in an int")

// pollEvery is how many matches CountProducts drains between two polls of
// its context — the unit of work the datalog executor bounds cancellation
// in.
const pollEvery = 1024

// CountProducts drains the cursor, like Count, and sums over the matches it
// had left the product of how many facts of the match's entity run each of
// reads matches — what Run.Where of the read's fields would read in the run.
// No read is opened a match: shard by shard, each read with an attribute
// walks that attribute's postings beside the cursor (lists and runs are both
// in position order, so each list is walked once, galloping to each run's
// window), and the matches of one run share its product. The context is
// polled every pollEvery matches; an error is its error or ErrCountOverflow,
// and leaves the cursor part-drained. Up to sixteen reads, nothing is
// allocated.
func (c *Cursor) CountProducts(ctx context.Context, reads []RunRead) (Products, error) {
	var buf [16]runRead
	walks := buf[:]
	if len(reads) > len(buf) {
		walks = make([]runRead, len(reads))
	}
	walks = walks[:len(reads)]
	var pc productCounter
	var err error
	if c.heads == nil {
		err = pc.shard(ctx, &c.shardCursor, false, reads, walks)
	}
	for i := range c.heads {
		if h := &c.heads[i]; h.rank != noRank && err == nil {
			err = pc.shard(ctx, &h.shardCursor, true, reads, walks)
			h.rank = noRank
		}
	}
	return pc.Products, err
}

// productCounter is one CountProducts' count so far.
type productCounter struct {
	Products
	matches int // drained, for the polls
}

// runRead is one read on one shard: the checks Run.Where makes, and, for a
// read with an attribute, the attribute's postings (cand) walked forward one
// run at a time; [pos, end) is the window of them last counted.
type runRead struct {
	shardCursor
	none bool // the shard lists nothing under the attribute
}

// shard drains one shard's stream, c — from the match it is stopped at, when
// pending, else from its next — into the count, with walks, one a read, for
// the reads on the shard.
func (pc *productCounter) shard(ctx context.Context, c *shardCursor, pending bool, reads []RunRead, walks []runRead) error {
	sh := c.sh
	if sh == nil {
		return nil
	}
	for i, rd := range reads {
		w := runRead{shardCursor: Run{sh: sh}.Where(NoID, rd.Class, rd.Value, rd.Exact).c}
		if rd.Attr != NoID {
			w.cand = sh.byAttr.of(rd.Attr)
			w.none = w.cand == nil
		}
		walks[i] = w
	}
	run := int32(-1)
	var product int
	var charged int64
	for pending || c.next() {
		pending = false
		if r := sh.runOf[c.at]; r != run {
			run = r
			var ok bool
			if product, charged, ok = runProduct(walks, sh.runs[r]); !ok {
				return ErrCountOverflow
			}
		}
		if product > math.MaxInt-pc.Total {
			return ErrCountOverflow
		}
		pc.Total += product
		pc.Reads += charged
		if pc.matches++; pc.matches%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runProduct is the product of the reads' counts in the run, and the reads
// it takes: the reads after the first that counts nothing are not made. It
// is not ok when the product does not fit in an int.
func runProduct(walks []runRead, run span) (product int, reads int64, ok bool) {
	product = 1
	for i := range walks {
		reads++
		hi, lo := bits.Mul64(uint64(product), uint64(walks[i].countIn(run)))
		if hi != 0 || lo > math.MaxInt {
			return 0, reads, false
		}
		if product = int(lo); product == 0 {
			break
		}
	}
	return product, reads, true
}

// countIn counts the read's matches in the run, which comes after every run
// it counted before.
func (w *runRead) countIn(run span) int {
	switch {
	case w.none:
		return 0
	case w.cand == nil:
		w.pos, w.end = run.lo, run.hi
	default:
		w.pos = seek(w.cand, w.end, run.lo)
		w.end = seek(w.cand, w.pos, run.hi)
	}
	return w.count()
}

// seek returns the first index from i on of the ascending list whose
// position is at least pos, len(list) when none is: it gallops — 1, 2, 4…
// entries on — past the positions below pos, then halves the last stride.
func seek(list []int32, i, pos int32) int32 {
	n := int32(len(list))
	if i >= n || list[i] >= pos {
		return i
	}
	lo, hi := i, i+1 // list[lo] < pos; list[hi] >= pos once hi is found
	for step := int32(1); hi < n && list[hi] < pos; step <<= 1 {
		lo, hi = hi, hi+step
	}
	hi = min(hi, n)
	for lo+1 < hi {
		if mid := lo + (hi-lo)/2; list[mid] < pos {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
