package lint

import (
	"go/token"
	"strings"
)

// supKey identifies one (file, line, rule) a directive silences.
type supKey struct {
	file string
	line int
	rule string
}

// directive is one parsed //lint:ignore entry for one rule (a
// comma-separated directive yields one per rule). used is set during
// Analyze when the directive actually silences a finding; directives
// that silence nothing are reported as stale.
type directive struct {
	pos  token.Position
	rule string
	used bool
}

// keys returns the (file, line, rule) slots the directive covers: its
// own line and the immediately following line, so both trailing and
// preceding-line placement work.
func (d *directive) keys() []supKey {
	return []supKey{
		{d.pos.Filename, d.pos.Line, d.rule},
		{d.pos.Filename, d.pos.Line + 1, d.rule},
	}
}

// collectSuppressions scans the module's comments for //lint:ignore
// directives:
//
//	x := foo() //lint:ignore RULE reason
//
//	//lint:ignore RULE reason
//	x := foo()
//
// Malformed directives (no rule, unknown rule, or missing reason) are
// reported as findings themselves: a suppression that silently does
// nothing is worse than none.
func collectSuppressions(m *Module) ([]*directive, []Finding) {
	known := make(map[string]bool)
	for _, c := range Checkers() {
		known[c.Rule] = true
	}

	var dirs []*directive
	var bad []Finding
	for _, p := range m.Packages {
		for _, f := range p.Syntax {
			for _, group := range f.Comments {
				for _, c := range group.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:  pos,
							Rule: RuleDirective,
							Msg:  "malformed directive: want //lint:ignore RULE reason",
						})
						continue
					}
					rules := strings.Split(fields[0], ",")
					valid := true
					for _, r := range rules {
						if !known[r] {
							bad = append(bad, Finding{
								Pos:  pos,
								Rule: RuleDirective,
								Msg:  "directive names unknown rule " + r,
							})
							valid = false
						}
					}
					if !valid {
						continue
					}
					for _, r := range rules {
						dirs = append(dirs, &directive{pos: pos, rule: r})
					}
				}
			}
		}
	}
	return dirs, bad
}
