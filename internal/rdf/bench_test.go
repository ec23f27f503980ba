package rdf

import (
	"bytes"
	"fmt"
	"testing"
)

func benchTriples(n int) []Triple {
	out := make([]Triple, n)
	for i := range out {
		out[i] = T(
			AKB.IRI(fmt.Sprintf("entity-%d", i%500)),
			AKB.IRI(fmt.Sprintf("attr/p%d", i%20)),
			Literal(fmt.Sprintf("value %d", i)),
		)
	}
	return out
}

func BenchmarkNTriplesWrite(b *testing.B) {
	ts := benchTriples(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNTriplesRead(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, benchTriples(5000)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadNTriples(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
