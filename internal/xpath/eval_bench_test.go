package xpath

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// levelsDoc is the shape of the fan-out benchmark's levels document: n
// <sym name="sNNN"> elements under one root, symbol s carrying 1 + s%2 <w>
// children.
func levelsDoc(n int) *xmltree.Node {
	var b strings.Builder
	b.WriteString("<levels>")
	for s := 0; s < n; s++ {
		fmt.Fprintf(&b, `<sym name="s%03d">`, s)
		for k := 0; k <= s%2; k++ {
			fmt.Fprintf(&b, "<w>%d%d</w>", 1+s%9, k)
		}
		b.WriteString("</sym>")
	}
	b.WriteString("</levels>")
	return xmltree.MustParse(b.String())
}

// classesDoc is the shape of the car-rental classes document: n <entry
// model="Model NN" class="X"/> elements under one root.
func classesDoc(n int) *xmltree.Node {
	var b strings.Builder
	b.WriteString("<classes>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<entry model="Model %02d" class="%c"/>`, i, "ABCDEF"[i%6])
	}
	b.WriteString("</classes>")
	return xmltree.MustParse(b.String())
}

// benchResult keeps benchmark results reachable.
var benchResult Object

func benchEval(b *testing.B, src string, ctx *Context) {
	e := MustCompile(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := e.Eval(ctx)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = o
	}
}

// BenchmarkEvalDescendantAttrEq is the fan-out rule query's path:
// //E[@a = v]/child over a 200-element document.
func BenchmarkEvalDescendantAttrEq(b *testing.B) {
	benchEval(b, `//sym[@name='s117']/w`, &Context{Node: levelsDoc(200)})
}

// BenchmarkEvalAttrResult is the car-rental opaque store query: the
// result is an attribute node, so it is materialised.
func BenchmarkEvalAttrResult(b *testing.B) {
	benchEval(b, `//entry[@model='Model 17']/@class`, &Context{Node: classesDoc(24)})
}

// BenchmarkEvalPositional keeps the two-step plan: //E[1] selects per
// parent.
func BenchmarkEvalPositional(b *testing.B) {
	benchEval(b, `//w[1]`, &Context{Node: levelsDoc(200)})
}
