package xq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// levelsURI and levelsDoc mirror the fan-out benchmark's levels document:
// 200 <sym name="sNNN"> elements, symbol s carrying 1 + s%2 <w> children.
const levelsURI = "http://example.org/bench/levels.xml"

func levelsDoc() *xmltree.Node {
	var b strings.Builder
	b.WriteString("<levels>")
	for s := 0; s < 200; s++ {
		fmt.Fprintf(&b, `<sym name="s%03d">`, s)
		for k := 0; k <= s%2; k++ {
			fmt.Fprintf(&b, "<w>%d%d</w>", 1+s%9, k)
		}
		b.WriteString("</sym>")
	}
	b.WriteString("</levels>")
	return xmltree.MustParse(b.String())
}

// fanoutQuery is the query a fan-out rule attaches to symbol s117.
const fanoutQuery = `for $w in doc('` + levelsURI + `')//sym[@name='s117']/w return $w/text()`

func levelsCtx() *Context {
	doc := levelsDoc()
	return &Context{Docs: func(uri string) (*xmltree.Node, error) {
		if uri != levelsURI {
			return nil, fmt.Errorf("no document %q", uri)
		}
		return doc, nil
	}}
}

func BenchmarkEvalFanoutQuery(b *testing.B) {
	q := MustCompile(fanoutQuery)
	ctx := levelsCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := q.Eval(ctx)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = seq
	}
}

// benchResult keeps benchmark results reachable.
var benchResult Sequence

// TestFanoutQueryAllocs bounds the allocations of one evaluation of the
// fan-out rule query (1,735 before the XPath evaluation plan).
func TestFanoutQueryAllocs(t *testing.T) {
	q := MustCompile(fanoutQuery)
	ctx := levelsCtx()
	seq, err := q.Eval(ctx)
	if err != nil || len(seq) != 2 || ItemString(seq[0]) != "10" || ItemString(seq[1]) != "11" {
		t.Fatalf("fan-out query = %v, %v", seq, err)
	}
	if n := testing.AllocsPerRun(50, func() { q.Eval(ctx) }); n > 100 {
		t.Errorf("fan-out query: %v allocs per evaluation, want <= 100", n)
	}
}
