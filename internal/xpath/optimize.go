package xpath

// optimize turns a parsed expression into its evaluation plan, in place.
// The rewrites change no result and no order:
//
//   - descendant-or-self::node() followed by a child step — the '//' in
//     //E[p] and a//E[p] — becomes one deep step, which walks the context
//     node's subtree once and applies the child step (predicates included)
//     at every node, instead of first materialising the whole
//     descendant-or-self node-set. Each node's children are filtered as a
//     group, so positional predicates such as //E[1] or //E[last()] keep
//     their meaning, and the result keeps today's order: grouped by parent,
//     parents in document order. (descendant::E[p] would return document
//     order instead, which differs when matches have different parents.)
//   - a comparison with a bare attribute step on one side (@a = v, v > @a)
//     becomes an attrCmpExpr, which compares attribute values straight from
//     Node.Attrs when v is not a node-set.
func optimize(n exprNode) exprNode {
	switch e := n.(type) {
	case *binaryExpr:
		e.left, e.right = optimize(e.left), optimize(e.right)
		if isComparison(e.op) {
			if t, ok := bareAttr(e.left); ok {
				return &attrCmpExpr{op: e.op, test: t, attr: e.left, other: e.right, attrLeft: true}
			}
			if t, ok := bareAttr(e.right); ok {
				return &attrCmpExpr{op: e.op, test: t, attr: e.right, other: e.left}
			}
		}
	case *negExpr:
		e.operand = optimize(e.operand)
	case *filterExpr:
		e.primary = optimize(e.primary)
		optimizeAll(e.preds)
	case *funcExpr:
		optimizeAll(e.args)
	case *pathExpr:
		if e.start != nil {
			e.start = optimize(e.start)
		}
		var steps []step
		for i := 0; i < len(e.steps); i++ {
			s := e.steps[i]
			optimizeAll(s.preds)
			if isDescendantOrSelfNode(s) && i+1 < len(e.steps) && e.steps[i+1].axis == axisChild {
				s = e.steps[i+1]
				optimizeAll(s.preds)
				s.deep = true
				i++
			}
			steps = append(steps, s)
		}
		e.steps = steps
	}
	return n
}

func optimizeAll(ns []exprNode) {
	for i := range ns {
		ns[i] = optimize(ns[i])
	}
}

// isDescendantOrSelfNode reports whether s is the predicate-free
// descendant-or-self::node() step that '//' abbreviates.
func isDescendantOrSelfNode(s step) bool {
	return s.axis == axisDescendantOrSelf && s.test.kind == testNodeType &&
		s.test.nodeType == "node" && len(s.preds) == 0
}

// bareAttr reports whether n is a relative path of exactly one
// predicate-free attribute step, such as @a, @p:a or @*, and returns its
// node test.
func bareAttr(n exprNode) (nodeTest, bool) {
	p, ok := n.(*pathExpr)
	if !ok || p.absolute || p.start != nil || len(p.steps) != 1 {
		return nodeTest{}, false
	}
	s := p.steps[0]
	if s.axis != axisAttribute || len(s.preds) != 0 {
		return nodeTest{}, false
	}
	return s.test, true
}
