package serve

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"akb/internal/datalog"
	"akb/internal/store"
)

// The four data responses — entity, triples, query, datalog — have fixed
// shapes, so their JSON is appended straight from the facts and rows into
// one buffer instead of being reflected out of maps and structs. The bytes
// are exactly what encoding/json writes for the shapes encode_test.go keeps
// as the reference (valueOut and the response structs): HTML-safe string
// escaping, \ufffd for invalid UTF-8, escaped U+2028/U+2029, ES6 float
// formatting, omitted empty optionals, object keys in sorted order. Every
// body ends with the newline the wire format has always had, so a response
// is one Write.

// errNotFinite is the encoders' one failure: JSON has no NaN or infinity,
// and like encoding/json they refuse to write one.
var errNotFinite = errors.New("serve: non-finite confidence")

const hexDigits = "0123456789abcdef"

// escapeExtra is how many bytes an ASCII byte adds to a JSON string under
// encoding/json's HTML-safe escaping: none to a printable byte other than the
// quote, the backslash and <, >, & (carried verbatim), one to a byte with a
// short escape (\n, \"), five to one spelled \u00XX.
var escapeExtra = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case b == '\\', b == '"', b == '\b', b == '\f', b == '\n', b == '\r', b == '\t':
			t[b] = 1
		case b < 0x20, b == '<', b == '>', b == '&':
			t[b] = 5
		}
	}
	return t
}()

// appendString appends s as a JSON string literal.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if escapeExtra[b] == 0 {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f the way ES6 prints a number: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21, no padded exponent.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNotFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendStrings appends a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendBelief appends what every fact ends with, in /v1/query's fact
// objects and in the entity and triples routes' value objects alike:
// "value", "confidence" and the optional "sources" and "ancestors".
func appendBelief(dst []byte, f *store.Fact) ([]byte, error) {
	dst = append(dst, `"value":`...)
	dst = appendString(dst, f.Value)
	dst = append(dst, `,"confidence":`...)
	dst, err := appendFloat(dst, f.Confidence)
	if err != nil {
		return dst, err
	}
	if f.Sources != 0 {
		dst = append(dst, `,"sources":`...)
		dst = strconv.AppendInt(dst, int64(f.Sources), 10)
	}
	if len(f.Ancestors) > 0 {
		dst = append(dst, `,"ancestors":`...)
		dst = appendStrings(dst, f.Ancestors)
	}
	return append(dst, '}'), nil
}

// appendValues appends the facts as a JSON array of value objects.
func appendValues(dst []byte, facts []store.Fact) ([]byte, error) {
	dst = append(dst, '[')
	for i := range facts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		var err error
		if dst, err = appendBelief(dst, &facts[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// factsSize bounds the JSON of the facts from above when no string needs an
// escape, so a body is one allocation; escapes only make append grow it.
func factsSize(facts []store.Fact) int {
	n := 0
	for i := range facts {
		f := &facts[i]
		n += 128 + len(f.Entity) + len(f.Class) + len(f.Attr) + len(f.Value)
		for _, a := range f.Ancestors {
			n += len(a) + 3
		}
	}
	return n
}

// encodeEntity is the /v1/entity body: the entity's facts grouped by
// attribute, attributes in sorted order.
func encodeEntity(id string, facts []store.Fact) ([]byte, error) {
	// Canonical order already groups an entity's facts by ascending
	// attribute. A querier that hands them over in another order gets them
	// regrouped the way a map keyed by attribute would: attributes sorted,
	// each one's values in the order they came.
	class := facts[0].Class
	for i := 1; i < len(facts); i++ {
		if facts[i].Attr < facts[i-1].Attr {
			facts = append([]store.Fact(nil), facts...)
			sort.SliceStable(facts, func(i, j int) bool { return facts[i].Attr < facts[j].Attr })
			break
		}
	}
	dst := make([]byte, 0, 64+len(id)+factsSize(facts))
	dst = append(dst, `{"entity":`...)
	dst = appendString(dst, id)
	if class != "" {
		dst = append(dst, `,"class":`...)
		dst = appendString(dst, class)
	}
	dst = append(dst, `,"facts":`...)
	dst = strconv.AppendInt(dst, int64(len(facts)), 10)
	dst = append(dst, `,"attributes":{`...)
	for lo := 0; lo < len(facts); {
		hi := lo + 1
		for hi < len(facts) && facts[hi].Attr == facts[lo].Attr {
			hi++
		}
		if lo > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, facts[lo].Attr)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValues(dst, facts[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	return append(dst, "}}\n"...), nil
}

// encodeTriples is the /v1/triples body: the accepted values of one
// (entity, attr) pair.
func encodeTriples(entity, attr string, facts []store.Fact) ([]byte, error) {
	dst := make([]byte, 0, 64+len(entity)+len(attr)+factsSize(facts))
	dst = append(dst, `{"entity":`...)
	dst = appendString(dst, entity)
	dst = append(dst, `,"attr":`...)
	dst = appendString(dst, attr)
	dst = append(dst, `,"values":`...)
	dst, err := appendValues(dst, facts)
	if err != nil {
		return nil, err
	}
	return append(dst, "}\n"...), nil
}

// encodeQuery is the /v1/query body: the first len(facts) of total matches.
func encodeQuery(generation uint64, total int, facts []store.Fact) ([]byte, error) {
	dst := make([]byte, 0, 96+factsSize(facts))
	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(len(facts)), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	if total > len(facts) {
		dst = append(dst, `,"truncated":true`...)
	}
	dst = append(dst, `,"facts":[`...)
	for i := range facts {
		f := &facts[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"entity":`...)
		dst = appendString(dst, f.Entity)
		if f.Class != "" {
			dst = append(dst, `,"class":`...)
			dst = appendString(dst, f.Class)
		}
		dst = append(dst, `,"attr":`...)
		dst = appendString(dst, f.Attr)
		dst = append(dst, ',')
		var err error
		if dst, err = appendBelief(dst, f); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// datalogAnswer is what the /v1/datalog body is encoded from: the query as
// parsed, the explain lines when asked for, and the engine's result, whose
// page is rows of string IDs (datalog.Result.IDs) that its Names spells.
type datalogAnswer struct {
	generation uint64
	query      string
	plan       []string
	res        *datalog.Result
}

// encodeDatalog appends the /v1/datalog body to dst[:0], and makes a buffer
// of the body's exact size first when dst has less room: the body is sized
// in one pass over the page, and the buffer never grows. Each binding is an
// object keyed by variable name, keys sorted, a name selected twice
// appearing once; its values are the page's IDs spelled through the
// store's names, straight into the body.
func encodeDatalog(dst []byte, a datalogAnswer) []byte {
	res := a.res
	vars, w := res.Vars, len(res.Vars)
	// cols is the bindings' key order: the positions into vars sorted by
	// name, one per distinct name (a repeated name is the same variable, so
	// the same value in every row), each with where its `"name":` ends in
	// keys — written once, copied into every row.
	type column struct{ idx, end int }
	var colBuf [3 * datalog.MaxClauses]column
	cols := colBuf[:0]
	for i, v := range vars {
		at := len(cols)
		for at > 0 && vars[cols[at-1].idx] > v {
			at--
		}
		if at > 0 && vars[cols[at-1].idx] == v {
			continue
		}
		cols = append(cols, column{})
		copy(cols[at+1:], cols[at:])
		cols[at].idx = i
	}
	var keyBuf [256]byte
	keys := keyBuf[:0]
	for i := range cols {
		keys = append(appendString(keys, vars[cols[i].idx]), ':')
		cols[i].end = len(keys)
	}

	// plain marks, of the page's first 4096 values, those that need no
	// escape: the write copies them between their quotes instead of scanning
	// them again.
	var plain [64]uint64
	var num [20]byte
	size := len(`{"generation":`) + len(strconv.AppendUint(num[:0], a.generation, 10)) +
		len(`,"query":`) + quotedLen(a.query) +
		len(`,"vars":`) + arrayLen(vars) +
		len(`,"count":`) + len(strconv.AppendInt(num[:0], int64(res.Count), 10)) +
		len(`,"total":`) + len(strconv.AppendInt(num[:0], int64(res.Total), 10)) +
		len(`,"bindings":[`) + len("]}\n")
	if len(a.plan) > 0 {
		size += len(`,"plan":`) + arrayLen(a.plan)
	}
	if res.Truncated {
		size += len(`,"truncated":true`)
	}
	if res.Count > 0 {
		// A row is {, its keys, a comma between two values and }; a comma
		// between two rows.
		size += res.Count*(2+len(keys)+max(len(cols)-1, 0)) + res.Count - 1
		for i := 0; i < res.Count; i++ {
			row := res.IDs[i*w : (i+1)*w]
			for j, c := range cols {
				s := res.Names.Name(row[c.idx])
				q := quotedLen(s)
				size += q
				if k := i*len(cols) + j; q == len(s)+2 && k < 64*len(plain) {
					plain[k/64] |= 1 << (k % 64)
				}
			}
		}
	}

	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	dst = append(dst[:0], `{"generation":`...)
	dst = strconv.AppendUint(dst, a.generation, 10)
	dst = append(dst, `,"query":`...)
	dst = appendString(dst, a.query)
	if len(a.plan) > 0 {
		dst = append(dst, `,"plan":`...)
		dst = appendStrings(dst, a.plan)
	}
	dst = append(dst, `,"vars":`...)
	dst = appendStrings(dst, vars)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(res.Count), 10)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(res.Total), 10)
	if res.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	dst = append(dst, `,"bindings":[`...)
	for i := 0; i < res.Count; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		row := res.IDs[i*w : (i+1)*w]
		start := 0
		for j, c := range cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, keys[start:c.end]...)
			if s, k := res.Names.Name(row[c.idx]), i*len(cols)+j; k < 64*len(plain) && plain[k/64]&(1<<(k%64)) != 0 {
				dst = append(append(append(dst, '"'), s...), '"')
			} else {
				dst = appendString(dst, s)
			}
			start = c.end
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// quotedLen is len(appendString(nil, s)), counted without writing it.
func quotedLen(s string) int {
	n := 2 + len(s)
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			n += int(escapeExtra[b])
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1: // \ufffd
			n += 5
		case c == '\u2028' || c == '\u2029': // \u202X
			n += 3
		}
		i += size
	}
	return n
}

// arrayLen is len(appendStrings(nil, ss)).
func arrayLen(ss []string) int {
	n := 2 + max(len(ss)-1, 0)
	for _, s := range ss {
		n += quotedLen(s)
	}
	return n
}
