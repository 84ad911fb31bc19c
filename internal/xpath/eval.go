package xpath

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/xmltree"
)

// NodeSet is an XPath node-set result, in the order produced by evaluation
// (document order for forward axes).
type NodeSet []*xmltree.Node

// Object is an XPath value: one of NodeSet, float64, string or bool.
type Object any

// object is the internal alias used by the evaluator.
type object = Object

// Context supplies everything an expression evaluation needs besides the
// expression itself.
type Context struct {
	// Node is the context node. For absolute paths the document root is
	// located by following Parent pointers.
	Node *xmltree.Node
	// Vars resolves $name references. Values must be NodeSet, float64,
	// string or bool. May be nil.
	Vars map[string]Object
	// Namespaces maps the prefixes usable in name tests (q:elem) to
	// namespace URIs. May be nil. Unprefixed name tests match names in no
	// namespace unless DefaultNS is set.
	Namespaces map[string]string
	// DefaultNS, when non-empty, is the namespace URI unprefixed element
	// name tests match against (a deviation from strict XPath 1.0 that the
	// query components use so domain documents with a default namespace
	// can be queried without prefixing every step).
	DefaultNS string
	// Functions adds or overrides functions for this context; it is
	// consulted before the core library. The XQuery-lite interpreter uses
	// it to provide doc(). May be nil.
	Functions map[string]func(ctx *Context, args []Object) (Object, error)
}

// evalCtx is the dynamic context of one subexpression evaluation: the
// context node, position and size, plus the state shared by the whole
// evaluation.
type evalCtx struct {
	node *xmltree.Node
	pos  int // 1-based context position
	size int
	env  *Context
	ev   *evaluation
}

// evaluation is the state of one Expr.Eval call.
type evaluation struct {
	top evalCtx
	// attrs memoizes synthesized attribute nodes so repeated attribute
	// axis traversals of one element yield identical node pointers. It is
	// allocated on first use: comparisons like [@a = 'v'] read Node.Attrs
	// directly and never get here.
	attrs map[*xmltree.Node][]*xmltree.Node
}

// derive returns a context for evaluating predicates below c. One is made
// per predicate filter and reset for every candidate node.
func (c *evalCtx) derive() *evalCtx {
	d := *c
	return &d
}

func (c *evalCtx) attrNodes(n *xmltree.Node) []*xmltree.Node {
	if a, ok := c.ev.attrs[n]; ok {
		return a
	}
	if c.ev.attrs == nil {
		c.ev.attrs = map[*xmltree.Node][]*xmltree.Node{}
	}
	a := n.AttrNodes()
	c.ev.attrs[n] = a
	return a
}

// Eval evaluates the expression and returns the result object.
func (e *Expr) Eval(ctx *Context) (Object, error) {
	ev := &evaluation{}
	ev.top = evalCtx{node: ctx.Node, pos: 1, size: 1, env: ctx, ev: ev}
	return e.root.eval(&ev.top)
}

// EvalNodes evaluates the expression and returns its node-set result; it is
// an error if the expression yields a non-node-set.
func (e *Expr) EvalNodes(ctx *Context) (NodeSet, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := o.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: %q evaluated to %s, not a node-set", e.src, typeName(o))
	}
	return ns, nil
}

// EvalString evaluates the expression and converts the result to a string
// per the XPath string() rules.
func (e *Expr) EvalString(ctx *Context) (string, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return "", err
	}
	return toString(o), nil
}

// EvalBool evaluates the expression and converts the result to a boolean
// per the XPath boolean() rules.
func (e *Expr) EvalBool(ctx *Context) (bool, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return false, err
	}
	return toBool(o), nil
}

// EvalNumber evaluates the expression and converts the result to a number
// per the XPath number() rules (NaN on unparsable strings).
func (e *Expr) EvalNumber(ctx *Context) (float64, error) {
	o, err := e.Eval(ctx)
	if err != nil {
		return 0, err
	}
	return toNumber(o), nil
}

// --- conversions ------------------------------------------------------------

func typeName(o object) string {
	switch o.(type) {
	case NodeSet:
		return "node-set"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	default:
		return fmt.Sprintf("%T", o)
	}
}

func toString(o object) string {
	switch v := o.(type) {
	case NodeSet:
		if len(v) == 0 {
			return ""
		}
		return v[0].TextContent()
	case float64:
		return formatNumber(v)
	case string:
		return v
	case bool:
		if v {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// FormatNumber renders a float per the XPath string(number) rules:
// integral values without a decimal point, NaN and infinities by name.
func FormatNumber(f float64) string { return formatNumber(f) }

func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func toNumber(o object) float64 {
	switch v := o.(type) {
	case NodeSet:
		return stringToNumber(toString(v))
	case float64:
		return v
	case string:
		return stringToNumber(v)
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return math.NaN()
	}
}

// stringToNumber is number() on a string, XPath 1.0 §4.4: optional
// whitespace, an optional '-', Digits ('.' Digits?)? or '.' Digits, then
// optional whitespace. Anything else is NaN — exponents, a leading '+',
// "Infinity" and "NaN" included. It does not allocate.
func stringToNumber(s string) float64 {
	i, j := 0, len(s)
	for i < j && isXMLSpace(s[i]) {
		i++
	}
	for j > i && isXMLSpace(s[j-1]) {
		j--
	}
	t := s[i:j]
	k, digits := 0, 0
	if k < len(t) && t[k] == '-' {
		k++
	}
	for ; k < len(t) && isDigit(t[k]); k++ {
		digits++
	}
	if k < len(t) && t[k] == '.' {
		for k++; k < len(t) && isDigit(t[k]); k++ {
			digits++
		}
	}
	if digits == 0 || k != len(t) {
		return math.NaN()
	}
	// t is well-formed, so the only possible error is a range error, for
	// which ParseFloat returns the correctly signed infinity.
	f, _ := strconv.ParseFloat(t, 64)
	return f
}

// isXMLSpace reports whether c is XML whitespace (the S production).
func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func toBool(o object) bool {
	switch v := o.(type) {
	case NodeSet:
		return len(v) > 0
	case float64:
		return v != 0 && !math.IsNaN(v)
	case string:
		return v != ""
	case bool:
		return v
	default:
		return false
	}
}

// --- expression evaluation ---------------------------------------------------

func (e *literalExpr) eval(*evalCtx) (object, error) { return e.val, nil }

func (e *varExpr) eval(c *evalCtx) (object, error) {
	if c.env.Vars != nil {
		if v, ok := c.env.Vars[e.name]; ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("xpath: unbound variable $%s", e.name)
}

func (e *negExpr) eval(c *evalCtx) (object, error) {
	v, err := e.operand.eval(c)
	if err != nil {
		return nil, err
	}
	return -toNumber(v), nil
}

func (e *binaryExpr) eval(c *evalCtx) (object, error) {
	// Short-circuit boolean operators.
	switch e.op {
	case "and":
		l, err := e.left.eval(c)
		if err != nil {
			return nil, err
		}
		if !toBool(l) {
			return false, nil
		}
		r, err := e.right.eval(c)
		if err != nil {
			return nil, err
		}
		return toBool(r), nil
	case "or":
		l, err := e.left.eval(c)
		if err != nil {
			return nil, err
		}
		if toBool(l) {
			return true, nil
		}
		r, err := e.right.eval(c)
		if err != nil {
			return nil, err
		}
		return toBool(r), nil
	}
	l, err := e.left.eval(c)
	if err != nil {
		return nil, err
	}
	r, err := e.right.eval(c)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case "|":
		ln, ok1 := l.(NodeSet)
		rn, ok2 := r.(NodeSet)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("xpath: operands of | must be node-sets, got %s and %s", typeName(l), typeName(r))
		}
		return unionNodeSets(ln, rn), nil
	case "+", "-", "*", "div", "mod":
		a, b := toNumber(l), toNumber(r)
		switch e.op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "div":
			return a / b, nil
		default:
			return math.Mod(a, b), nil
		}
	case "=", "!=", "<", "<=", ">", ">=":
		return compare(e.op, l, r), nil
	}
	return nil, fmt.Errorf("xpath: unknown operator %q", e.op)
}

func isComparison(op string) bool {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// compare applies a comparison operator with the XPath 1.0 semantics.
func compare(op string, l, r object) bool {
	if op == "=" || op == "!=" {
		return compareEq(l, r, op == "!=")
	}
	return compareRel(l, r, op)
}

// compareEq implements the XPath 1.0 =/!= semantics including existential
// node-set comparison.
func compareEq(l, r object, negate bool) bool {
	// When either operand is a boolean, the other is converted with
	// boolean() and compared once — even if it is a node-set.
	if _, ok := l.(bool); ok {
		return (toBool(l) == toBool(r)) != negate
	}
	if _, ok := r.(bool); ok {
		return (toBool(l) == toBool(r)) != negate
	}
	ln, lIsSet := l.(NodeSet)
	rn, rIsSet := r.(NodeSet)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if (a.TextContent() == b.TextContent()) != negate {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if eqString(a.TextContent(), r) != negate {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if eqString(b.TextContent(), l) != negate {
				return true
			}
		}
		return false
	default:
		_, ln := l.(float64)
		_, rn := r.(float64)
		if ln || rn {
			return (toNumber(l) == toNumber(r)) != negate
		}
		return (toString(l) == toString(r)) != negate
	}
}

// eqString is = between a node's string-value s and a non-node-set,
// non-boolean object v: numeric when v is a number, textual otherwise.
func eqString(s string, v object) bool {
	switch x := v.(type) {
	case float64:
		return stringToNumber(s) == x
	case string:
		return s == x
	default:
		return s == toString(v)
	}
}

// compareRel implements </<=/>/>= with numeric comparison and existential
// node-set semantics.
func compareRel(l, r object, op string) bool {
	ln, lIsSet := l.(NodeSet)
	rn, rIsSet := r.(NodeSet)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if cmpNum(op, stringToNumber(a.TextContent()), stringToNumber(b.TextContent())) {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if cmpNum(op, stringToNumber(a.TextContent()), toNumber(r)) {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if cmpNum(op, toNumber(l), stringToNumber(b.TextContent())) {
				return true
			}
		}
		return false
	default:
		return cmpNum(op, toNumber(l), toNumber(r))
	}
}

func cmpNum(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}

// eval compares the attribute step against the other operand. A node-set
// operand gets the general comparison over materialised attribute nodes;
// anything else is compared with each matching attribute value in place,
// which is what compare would conclude from the attribute node-set.
func (e *attrCmpExpr) eval(c *evalCtx) (object, error) {
	v, err := e.other.eval(c)
	if err != nil {
		return nil, err
	}
	if _, ok := v.(NodeSet); ok {
		attrs, err := e.attr.eval(c)
		if err != nil {
			return nil, err
		}
		if e.attrLeft {
			return compare(e.op, attrs, v), nil
		}
		return compare(e.op, v, attrs), nil
	}
	n := c.node
	switch e.op {
	case "=", "!=":
		negate := e.op == "!="
		if b, ok := v.(bool); ok {
			// The attribute node-set converts to boolean: does it exist.
			exists := false
			for _, a := range n.Attrs {
				if e.matches(c, a) {
					exists = true
					break
				}
			}
			return (exists == b) != negate, nil
		}
		for _, a := range n.Attrs {
			if e.matches(c, a) && eqString(a.Value, v) != negate {
				return true, nil
			}
		}
		return false, nil
	default:
		f := toNumber(v)
		for _, a := range n.Attrs {
			if !e.matches(c, a) {
				continue
			}
			x := stringToNumber(a.Value)
			if e.attrLeft && cmpNum(e.op, x, f) || !e.attrLeft && cmpNum(e.op, f, x) {
				return true, nil
			}
		}
		return false, nil
	}
}

// matches reports whether attribute a is on the step's attribute axis
// (namespace declarations are not) and passes its node test.
func (e *attrCmpExpr) matches(c *evalCtx, a xmltree.Attr) bool {
	return !a.IsNamespaceDecl() && testMatches(c, e.test, false, xmltree.AttrNode, a.Name)
}

func unionNodeSets(a, b NodeSet) NodeSet {
	seen := make(map[*xmltree.Node]bool, len(a)+len(b))
	out := make(NodeSet, 0, len(a)+len(b))
	for _, s := range [2]NodeSet{a, b} {
		for _, n := range s {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

func (e *filterExpr) eval(c *evalCtx) (object, error) {
	v, err := e.primary.eval(c)
	if err != nil {
		return nil, err
	}
	if len(e.preds) == 0 {
		return v, nil
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to %s, not a node-set", typeName(v))
	}
	// The first filter writes to a new slice, since ns may be a variable's
	// value; later ones filter that slice in place.
	pc := c.derive()
	var out NodeSet
	for i, pred := range e.preds {
		if i == 0 {
			out, err = filter(pc, nil, ns, pred)
		} else {
			out, err = filter(pc, out[:0], out, pred)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return NodeSet(nil), nil
	}
	return out, nil
}

// filter appends to dst the nodes of ns the predicate keeps, in order: a
// number keeps the node at that position, anything else is converted with
// boolean(). pc is reset for each node. dst may be ns[:0], since node i is
// read before any slot past i-1 is written.
func filter(pc *evalCtx, dst, ns NodeSet, pred exprNode) (NodeSet, error) {
	size := len(ns)
	for i := 0; i < size; i++ {
		n := ns[i]
		pc.node, pc.pos, pc.size = n, i+1, size
		v, err := pred.eval(pc)
		if err != nil {
			return nil, err
		}
		keep := false
		if num, isNum := v.(float64); isNum {
			keep = float64(i+1) == num
		} else {
			keep = toBool(v)
		}
		if keep {
			dst = append(dst, n)
		}
	}
	return dst, nil
}

func (e *pathExpr) eval(c *evalCtx) (object, error) {
	var current NodeSet
	// Steps after the first read the node-set a step produced, which is
	// duplicate-free; a filter expression's value need not be.
	dupFree := true
	switch {
	case e.start != nil:
		v, err := e.start.eval(c)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: path applied to %s, not a node-set", typeName(v))
		}
		current, dupFree = ns, false
	case e.absolute:
		current = NodeSet{documentRoot(c.node)}
	default:
		current = NodeSet{c.node}
	}
	for i := range e.steps {
		s := &e.steps[i]
		r := stepEval{c: c, s: s}
		if len(current) > 1 && (!dupFree || s.overlaps()) {
			r.seen = make(map[*xmltree.Node]bool)
		}
		if len(s.preds) > 0 {
			r.pc = c.derive()
		}
		for _, n := range current {
			var err error
			if s.deep {
				err = r.deep(n)
			} else {
				err = r.from(n)
			}
			if err != nil {
				return nil, err
			}
		}
		current, dupFree = r.out, true
	}
	return current, nil
}

func documentRoot(n *xmltree.Node) *xmltree.Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// overlaps reports whether the step can reach one node from two distinct
// context nodes. Child, attribute and self steps cannot: a node has one
// parent, and attribute nodes are made per element. So over a
// duplicate-free input their results need no duplicate check.
func (s *step) overlaps() bool {
	if s.deep {
		return true
	}
	switch s.axis {
	case axisChild, axisAttribute, axisSelf:
		return false
	}
	return true
}

// stepEval evaluates one location step over the context nodes of a path,
// appending the selected nodes to out: per context node in input order,
// each context node's nodes in axis order, later duplicates dropped.
type stepEval struct {
	c     *evalCtx
	s     *step
	pc    *evalCtx               // predicate context, nil without predicates
	group NodeSet                // scratch: one context node's candidates
	seen  map[*xmltree.Node]bool // nil when the step cannot yield duplicates
	out   NodeSet
}

// from applies the step to context node n. Predicates see positions
// within n's candidates, as XPath requires.
func (r *stepEval) from(n *xmltree.Node) error {
	if r.pc == nil && r.seen == nil {
		r.out = appendAxis(r.c, r.out, n, r.s.axis, r.s.test)
		return nil
	}
	if r.s.axis == axisChild && cap(r.group) < len(n.Children) {
		r.group = make(NodeSet, 0, len(n.Children))
	}
	g := appendAxis(r.c, r.group[:0], n, r.s.axis, r.s.test)
	for _, pred := range r.s.preds {
		var err error
		if g, err = filter(r.pc, g[:0], g, pred); err != nil {
			return err
		}
	}
	r.group = g
	for _, m := range g {
		if r.seen != nil {
			if r.seen[m] {
				continue
			}
			r.seen[m] = true
		}
		r.out = append(r.out, m)
	}
	return nil
}

// deep applies a fused '//' child step to context node x: the child step
// from every descendant-or-self node of x, in document order — exactly
// what descendant-or-self::node() followed by the child step selects.
func (r *stepEval) deep(x *xmltree.Node) error {
	if err := r.from(x); err != nil {
		return err
	}
	for _, ch := range x.Children {
		if err := r.deep(ch); err != nil {
			return err
		}
	}
	return nil
}

// appendAxis appends to dst the nodes on axis a from n that pass node test
// t, in axis order (document order for forward axes, nearest first for
// reverse ones).
func appendAxis(c *evalCtx, dst NodeSet, n *xmltree.Node, a axis, t nodeTest) NodeSet {
	switch a {
	case axisChild:
		for _, ch := range n.Children {
			if matchTest(c, ch, a, t) {
				dst = append(dst, ch)
			}
		}
	case axisDescendant, axisDescendantOrSelf:
		if a == axisDescendantOrSelf && matchTest(c, n, a, t) {
			dst = append(dst, n)
		}
		dst = appendDescendants(c, dst, n, a, t)
	case axisSelf:
		if matchTest(c, n, a, t) {
			dst = append(dst, n)
		}
	case axisParent:
		if n.Parent != nil && matchTest(c, n.Parent, a, t) {
			dst = append(dst, n.Parent)
		}
	case axisAncestor, axisAncestorOrSelf:
		if a == axisAncestorOrSelf && matchTest(c, n, a, t) {
			dst = append(dst, n)
		}
		for p := n.Parent; p != nil; p = p.Parent {
			if matchTest(c, p, a, t) {
				dst = append(dst, p)
			}
		}
	case axisAttribute:
		for _, an := range c.attrNodes(n) {
			if matchTest(c, an, a, t) {
				dst = append(dst, an)
			}
		}
	case axisFollowingSibling, axisPrecedingSibling:
		sibs, idx := siblings(n)
		if idx < 0 {
			break
		}
		if a == axisFollowingSibling {
			for _, sib := range sibs[idx+1:] {
				if matchTest(c, sib, a, t) {
					dst = append(dst, sib)
				}
			}
		} else {
			for i := idx - 1; i >= 0; i-- {
				if matchTest(c, sibs[i], a, t) {
					dst = append(dst, sibs[i])
				}
			}
		}
	case axisFollowing:
		// All nodes after n in document order, excluding descendants:
		// for each ancestor-or-self, the subtrees of its following
		// siblings.
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs, idx := siblings(cur)
			for _, sib := range sibs[idx+1:] {
				if matchTest(c, sib, a, t) {
					dst = append(dst, sib)
				}
				dst = appendDescendants(c, dst, sib, a, t)
			}
		}
	case axisPreceding:
		// All nodes before n, excluding ancestors: for each
		// ancestor-or-self, its preceding siblings nearest first, each
		// followed by its subtree in document order.
		for cur := n; cur != nil && cur.Parent != nil; cur = cur.Parent {
			sibs, idx := siblings(cur)
			for i := idx - 1; i >= 0; i-- {
				if matchTest(c, sibs[i], a, t) {
					dst = append(dst, sibs[i])
				}
				dst = appendDescendants(c, dst, sibs[i], a, t)
			}
		}
	}
	return dst
}

// appendDescendants appends the descendants of n passing t, in document
// order.
func appendDescendants(c *evalCtx, dst NodeSet, n *xmltree.Node, a axis, t nodeTest) NodeSet {
	for _, ch := range n.Children {
		if matchTest(c, ch, a, t) {
			dst = append(dst, ch)
		}
		dst = appendDescendants(c, dst, ch, a, t)
	}
	return dst
}

// siblings returns n's parent's children and n's index among them, or
// (nil, -1) for a node without a parent.
func siblings(n *xmltree.Node) ([]*xmltree.Node, int) {
	if n.Parent == nil {
		return nil, -1
	}
	sibs := n.Parent.Children
	for i, s := range sibs {
		if s == n {
			return sibs, i
		}
	}
	return sibs, -1
}

func matchTest(c *evalCtx, n *xmltree.Node, a axis, t nodeTest) bool {
	return testMatches(c, t, a != axisAttribute, n.Kind, n.Name)
}

// testMatches applies node test t to a node of the given kind and name.
// principalElement is false on the attribute axis, whose principal node
// type is attribute.
func testMatches(c *evalCtx, t nodeTest, principalElement bool, kind xmltree.Kind, name xmltree.Name) bool {
	switch t.kind {
	case testNodeType:
		switch t.nodeType {
		case "node":
			return true
		case "text":
			return kind == xmltree.TextNode
		case "comment":
			return kind == xmltree.CommentNode
		case "processing-instruction":
			return kind == xmltree.ProcInstNode
		}
		return false
	case testAny:
		if principalElement {
			return kind == xmltree.ElementNode
		}
		return kind == xmltree.AttrNode
	case testNSWildcard:
		uri, ok := c.env.Namespaces[t.prefix]
		if !ok {
			return false
		}
		if principalElement {
			return kind == xmltree.ElementNode && name.Space == uri
		}
		return kind == xmltree.AttrNode && name.Space == uri
	default: // testName
		var uri string
		if t.prefix != "" {
			u, ok := c.env.Namespaces[t.prefix]
			if !ok {
				return false
			}
			uri = u
		} else if principalElement {
			uri = c.env.DefaultNS
		}
		if principalElement {
			return kind == xmltree.ElementNode && name.Local == t.local && name.Space == uri
		}
		return kind == xmltree.AttrNode && name.Local == t.local && name.Space == uri
	}
}

func (e *funcExpr) eval(c *evalCtx) (object, error) {
	if c.env.Functions != nil {
		if custom, ok := c.env.Functions[e.name]; ok {
			args := make([]object, len(e.args))
			for i, a := range e.args {
				v, err := a.eval(c)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return custom(c.env, args)
		}
	}
	fn, ok := coreFunctions[e.name]
	if !ok {
		return nil, fmt.Errorf("xpath: unknown function %s()", e.name)
	}
	if fn.minArgs > len(e.args) || (fn.maxArgs >= 0 && len(e.args) > fn.maxArgs) {
		return nil, fmt.Errorf("xpath: %s() called with %d arguments", e.name, len(e.args))
	}
	args := make([]object, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(c)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn.impl(c, args)
}
