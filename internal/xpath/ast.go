package xpath

// Expr is a compiled XPath expression. Compile once with Compile, then
// evaluate against any context; compiled expressions are immutable and safe
// for concurrent use.
type Expr struct {
	root exprNode
	src  string
}

// String returns the source text the expression was compiled from.
func (e *Expr) String() string { return e.src }

// exprNode is a node of the expression AST.
type exprNode interface {
	eval(ctx *evalCtx) (object, error)
}

// axis enumerates the supported XPath axes.
type axis int

const (
	axisChild axis = iota
	axisDescendant
	axisDescendantOrSelf
	axisSelf
	axisParent
	axisAncestor
	axisAncestorOrSelf
	axisAttribute
	axisFollowingSibling
	axisPrecedingSibling
	axisFollowing
	axisPreceding
)

var axisNames = map[string]axis{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"descendant-or-self": axisDescendantOrSelf,
	"self":               axisSelf,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"ancestor-or-self":   axisAncestorOrSelf,
	"attribute":          axisAttribute,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
	"following":          axisFollowing,
	"preceding":          axisPreceding,
}

// testKind discriminates node tests.
type testKind int

const (
	testName       testKind = iota // QName or NCName
	testAny                        // *
	testNSWildcard                 // prefix:*
	testNodeType                   // node(), text(), comment()
)

// nodeTest selects nodes on an axis.
type nodeTest struct {
	kind     testKind
	prefix   string // as written; resolved at evaluation time
	local    string
	nodeType string // "node", "text", "comment"
}

// step is one location step: axis::test[pred]...
type step struct {
	axis  axis
	test  nodeTest
	preds []exprNode
	// deep marks a child step fused with the descendant-or-self::node()
	// step before it (the '//' abbreviation): the child step is applied
	// to every descendant-or-self node of each context node, in document
	// order, without materialising that node-set. See optimize.
	deep bool
}

// pathExpr is a location path, optionally rooted at a filter expression
// (FilterExpr '/' RelativeLocationPath).
type pathExpr struct {
	absolute bool     // starts with '/'
	start    exprNode // nil: context node (or root if absolute)
	steps    []step
}

// filterExpr is PrimaryExpr Predicate* without a trailing path.
type filterExpr struct {
	primary exprNode
	preds   []exprNode
}

// binaryExpr covers or/and/=/!=/</<=/>/>=/+/-/*/div/mod and '|'.
type binaryExpr struct {
	op    string
	left  exprNode
	right exprNode
}

// negExpr is unary minus.
type negExpr struct{ operand exprNode }

// literalExpr is a string or numeric literal, boxed once at compile time
// so evaluation returns it without allocating.
type literalExpr struct{ val object }

// varExpr is a variable reference $name.
type varExpr struct{ name string }

// funcExpr is a core-library function call.
type funcExpr struct {
	name string
	args []exprNode
}

// attrCmpExpr is a comparison with a bare attribute step on one side
// (@name op v, or v op @name), produced by optimize from a binaryExpr.
// When v is not a node-set the matching attributes are compared straight
// from Node.Attrs with the semantics compareEq/compareRel give the
// attribute node-set, so no attribute node is materialised.
type attrCmpExpr struct {
	op       string
	test     nodeTest
	attr     exprNode // the attribute path, evaluated when v is a node-set
	other    exprNode // v
	attrLeft bool     // the attribute step is the left operand
}
