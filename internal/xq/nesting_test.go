package xq

import (
	"strings"
	"testing"
)

// TestCompileBoundsNesting: nesting far past the parsers' depth limits is a
// compile error, not a stack overflow, whether the nesting is in XQuery
// constructs or in an XPath span.
func TestCompileBoundsNesting(t *testing.T) {
	const n = 1_000_000
	for name, src := range map[string]string{
		"xpath parentheses": strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"sequences":         strings.Repeat("(1, ", n) + "1" + strings.Repeat(")", n),
		"if":                strings.Repeat("if (1) then ", n) + "1" + strings.Repeat(" else 2", n),
		"constructors":      strings.Repeat("<a>", n) + strings.Repeat("</a>", n),
		"enclosed":          strings.Repeat("<a>{", n) + "1" + strings.Repeat("}</a>", n),
		"functions":         strings.Repeat("exists(", n) + "1" + strings.Repeat(")", n),
		"for":               strings.Repeat("for $x in 1 return ", n) + "1",
	} {
		_, err := Compile(src)
		if err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: err = %v, want a nesting error", name, err)
		}
	}
	deep := strings.Repeat("<a>{", 50) + "1" + strings.Repeat("}</a>", 50)
	if _, err := Compile(deep); err != nil {
		t.Errorf("50 nested constructors: %v", err)
	}
}
