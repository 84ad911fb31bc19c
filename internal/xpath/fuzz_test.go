package xpath

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// fuzzDoc is the fixed document FuzzXPath evaluates accepted expressions
// against: the paper's travel documents in miniature, with namespaces,
// mixed content, comments and nested repeats.
const fuzzDoc = `<owners xmlns:t="http://example.org/travel" xmlns="http://example.org/cars">
  <owner name="John Doe" t:home="Munich">
    <car vin="1" year="2003"><model>VW Golf</model><year>2003</year><class>C</class></car>
    <car vin="2" year="2005"><model>VW Passat</model><year>2005</year><class>B</class></car>
  </owner>
  <!-- rentals -->
  <owner name="Jane Roe"><car vin="3"><model>Twingo <b>1.2</b></model></car><owner name="nested"/></owner>
  <entry model="VW Golf" class="C"/><entry model="Twingo" class="A"/>
  <sym name="s017"><w>30</w><w>31</w></sym>
</owners>`

// fuzzSeeds are the expressions of the figure replays, the examples and the
// benchmark workloads, plus shapes the evaluation plan rewrites.
var fuzzSeeds = []string{
	`//owner[@name='John Doe']/car[year>2004]/model`,
	`//owner[@name=$Person]/car`,
	`doc('cars.xml')//owner[@name=$Person]/car/model/text()`,
	`//city[@name='Paris']/car/@class`,
	`string(//entry[@model='VW Golf']/@class)`,
	`//entry[@model='Twingo']/@class`,
	`//sym[@name='s017']/w`,
	`//stock[@supplier=$Supplier and @item=$Item]`,
	`$A > 1`, `$C != $B`, `$X != ''`, `$X mod 2 = 0`, `$N > 3`,
	`//x[1]`, `descendant::x[1]`, `//x[last()]`, `//x[$n]`, `(//car)[2]/model`,
	`@a = 1`, `@a = true()`, `@missing = false()`, `@a != 'v'`, `@t:home`,
	`//car/@* | //car/@vin`, `count(//owner//owner)`, `//model/ancestor-or-self::*`,
	`//car/following::*[1]`, `//class/preceding::model`, `sum(//w) div count(//w)`,
	`number(' 12 ') + -(-3)`, `substring('abcdef', 2, 3)`, `translate(name(), 'o', 'O')`,
	`concat(local-name(/*), ':', namespace-uri(/*))`, `//comment()`, `//text()[normalize-space(.)]`,
	`not(//car[year < 2000]) or starts-with(//model, 'VW')`, `//*[@name = //owner/@name]`,
}

// FuzzXPath checks that Compile never panics and that an accepted
// expression evaluates on a fixed document without panicking and with the
// same result twice.
func FuzzXPath(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	doc := xmltree.MustParse(fuzzDoc)
	ctx := &Context{
		Node: doc,
		Vars: map[string]Object{
			"Person": "John Doe", "Supplier": "acme", "Item": "bolt",
			"A": 2.0, "B": "x", "C": "y", "X": "7", "N": 4.0, "n": 2.0,
			"Nodes": NodeSet{doc.Root()},
		},
		Namespaces: map[string]string{"t": "http://example.org/travel", "c": "http://example.org/cars"},
		DefaultNS:  "http://example.org/cars",
		Functions: map[string]func(*Context, []Object) (Object, error){
			"doc": func(_ *Context, args []Object) (Object, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("doc() takes one argument")
				}
				return NodeSet{doc}, nil
			},
		},
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil || strings.Count(src, "[") > 3 {
			// Every predicate level may run a path per candidate node, so
			// deeper predicate nesting only makes evaluations slow.
			return
		}
		first, err1 := e.Eval(ctx)
		second, err2 := e.Eval(ctx)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("%q: errors differ: %v / %v", src, err1, err2)
		}
		if a, b := describe(first), describe(second); a != b {
			t.Fatalf("%q: results differ:\n%s\n%s", src, a, b)
		}
	})
}

// describe renders a result so that two evaluations can be compared:
// nodes by identity, except attribute nodes, which are made afresh per
// evaluation and so are identified by their element and name.
func describe(o Object) string {
	ns, ok := o.(NodeSet)
	if !ok {
		return fmt.Sprintf("%T %v", o, o)
	}
	var b strings.Builder
	for _, n := range ns {
		if n.Kind == xmltree.AttrNode {
			fmt.Fprintf(&b, "@%p/%s=%q ", n.Parent, n.Name, n.Text)
		} else {
			fmt.Fprintf(&b, "%p ", n)
		}
	}
	return b.String()
}
