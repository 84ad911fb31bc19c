package xpath

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// planDoc has x elements under different parents and nested in each other,
// so per-parent and document order differ.
const planDoc = `<r xmlns:p="urn:p">
  <x id="1"><x id="2"/></x>
  <a><x id="3"/><x id="4"/></a>
  <x id="5" a="1" p:a="q" b="v"/>
</r>`

// render lists a node-set as the id attribute of each element that has
// one, its name otherwise; attribute nodes render as name=value.
func render(ns NodeSet) string {
	var parts []string
	for _, n := range ns {
		switch {
		case n.Kind == xmltree.AttrNode:
			parts = append(parts, n.Name.Local+"="+n.Text)
		case n.AttrValue("", "id") != "":
			parts = append(parts, n.AttrValue("", "id"))
		default:
			parts = append(parts, n.Name.Local)
		}
	}
	return strings.Join(parts, ",")
}

// TestPlanResultsAndOrder pins results and their order for the shapes the
// evaluation plan rewrites ('//' steps, comparisons with an attribute
// step) and for the positional shapes next to them. The expectations are
// the evaluator's behaviour before the rewrites existed.
func TestPlanResultsAndOrder(t *testing.T) {
	ctx := &Context{
		Node:       xmltree.MustParse(planDoc),
		Vars:       map[string]Object{"n": 2.0, "s": "q", "none": NodeSet(nil)},
		Namespaces: map[string]string{"p": "urn:p"},
	}
	for _, tc := range []struct{ src, want string }{
		// '//' groups matches by parent, parents in document order;
		// descendant:: is document order.
		{`//x`, "1,5,2,3,4"},
		{`descendant::x`, "1,2,3,4,5"},
		{`//x[1]`, "1,2,3"},
		{`descendant::x[1]`, "1"},
		{`(//x)[1]`, "1"},
		{`//x[last()]`, "5,2,4"},
		{`//x[$n]`, "5,4"},
		{`//x[position() = $n]`, "5,4"},
		{`//x[@id > 1][1]`, "5,2,3"},
		{`//x[1][@id > 1]`, "2,3"},
		{`/r//x`, "1,5,2,3,4"},
		{`//a//x`, "3,4"},
		{`//x//x`, "2"},
		{`//x/..`, "r,1,a"},
		{`//@id`, "id=1,id=2,id=3,id=4,id=5"},
		// Attribute comparisons, both operand orders.
		{`//x[@a = 1]`, "5"},
		{`//x[1 = @a]`, "5"},
		{`//x[@a = '1.0']`, ""},
		{`//x[@a = 1.0]`, "5"},
		{`//x[@a = true()]`, "5"},
		{`//x[true() = @a]`, "5"},
		{`//x[@missing = false()]`, "1,5,2,3,4"},
		{`//x[@missing = true()]`, ""},
		{`//x[@missing != 'v']`, ""},
		{`//x[@a != 'v']`, "5"},
		{`//x[@b != 'v']`, ""},
		{`//x[@p:a = 'q']`, "5"},
		{`//x[@p:a = $s]`, "5"},
		{`//x[@q:a = 'q']`, ""},
		{`//x[@* = 'v']`, "5"},
		{`//x[@p:* = 'q']`, "5"},
		{`//x[@id > 3]`, "5,4"},
		{`//x[3 > @id]`, "1,2"},
		{`//x[@id >= $n]`, "5,2,3,4"},
		{`//x[@id <= '2']`, "1,2"},
		{`//x[@id = //x[@a]/@id]`, "5"},
		{`//x[@id = $none]`, ""},
		{`//x[@id != $none]`, ""},
		{`//x[@id and @a]`, "5"},
	} {
		got, err := MustCompile(tc.src).EvalNodes(ctx)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if render(got) != tc.want {
			t.Errorf("%s = %q, want %q", tc.src, render(got), tc.want)
		}
	}
}

// TestAttributeNodeIdentity: attribute nodes stay identical within one
// evaluation, so a union of a step with itself deduplicates.
func TestAttributeNodeIdentity(t *testing.T) {
	ctx := &Context{Node: xmltree.MustParse(planDoc)}
	ns, err := MustCompile(`//x[@id=5]/@a | //x[@id=5]/@a`).EvalNodes(ctx)
	if err != nil || render(ns) != "a=1" {
		t.Fatalf("@a | @a = %q, %v", render(ns), err)
	}
	if got := evalNum(t, ctx, `count(//x/@id | //x/@id)`); got != 5 {
		t.Errorf("count(//x/@id | //x/@id) = %v", got)
	}
}

// TestNumberIsXPath10 pins number() on strings to XPath 1.0 §4.4: no
// exponents, no '+', no named infinities, XML whitespace only.
func TestNumberIsXPath10(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"12", 12},
		{" \t\n\r12.5 \n", 12.5},
		{"-3", -3},
		{".5", 0.5},
		{"-.5", -0.5},
		{"5.", 5},
		{"007", 7},
		{"1" + strings.Repeat("0", 400), math.Inf(1)},
		{"-1" + strings.Repeat("0", 400), math.Inf(-1)},
		{"1e3", nan},
		{"+5", nan},
		{"inf", nan},
		{"Infinity", nan},
		{"-Infinity", nan},
		{"NaN", nan},
		{"0x10", nan},
		{"1_000", nan},
		{"1.2.3", nan},
		{"- 1", nan},
		{"--1", nan},
		{".", nan},
		{"-", nan},
		{"", nan},
		{"   ", nan},
		{" 7", nan},
		{"\v7", nan},
		{"7 x", nan},
	} {
		got := stringToNumber(tc.in)
		if got != tc.want && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("number(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := stringToNumber("-0"); got != 0 || !math.Signbit(got) {
		t.Errorf("number('-0') = %v, want -0", got)
	}
	ctx := ctxFor(`<a/>`)
	if got := evalNum(t, ctx, `number('1e3')`); !math.IsNaN(got) {
		t.Errorf("number('1e3') = %v, want NaN", got)
	}
	if got := evalNum(t, ctx, `number(' 42 ') + 1`); got != 43 {
		t.Errorf("number(' 42 ') + 1 = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { stringToNumber("not a number") }); n != 0 {
		t.Errorf("stringToNumber allocates %v times on a non-number", n)
	}
}

// TestCompileBoundsNesting: nesting far past maxDepth is a SyntaxError, not
// a stack overflow, for every construct the parser recurses on.
func TestCompileBoundsNesting(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"parentheses": strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"predicates":  strings.Repeat("a[", n) + "1" + strings.Repeat("]", n),
		"arguments":   strings.Repeat("not(", n) + "1" + strings.Repeat(")", n),
		"unary minus": strings.Repeat("-", n) + "1",
		"unclosed":    strings.Repeat("(", n),
	} {
		_, err := Compile(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested deeper") {
			t.Errorf("%s: err = %v, want a nesting SyntaxError", name, err)
		}
	}
	deep := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if got := evalNum(t, ctxFor(`<a/>`), deep); got != 1 {
		t.Errorf("100 nested parentheses = %v", got)
	}
	if got := evalNum(t, ctxFor(`<a/>`), strings.Repeat("-", 100)+"1"); got != 1 {
		t.Errorf("100 unary minus = %v", got)
	}
}

// TestEvalAllocs bounds the allocations of the car-rental class lookup,
// whose result is an attribute node and so is materialised (283 allocs
// per evaluation before the evaluation plan; 12 after).
func TestEvalAllocs(t *testing.T) {
	e := MustCompile(`//entry[@model='Model 17']/@class`)
	ctx := &Context{Node: classesDoc(24)}
	if got, _ := e.EvalString(ctx); got != "F" {
		t.Fatalf("class = %q", got)
	}
	if n := testing.AllocsPerRun(50, func() { e.Eval(ctx) }); n > 12 {
		t.Errorf("//entry[@model='Model 17']/@class: %v allocs per evaluation, want <= 12", n)
	}
}
