package lint

import (
	"strconv"
)

// checkMathRand implements no-math-rand: math/rand (v1 or v2) may only
// appear in _test.go files and in the synthetic-workload packages
// internal/workload and internal/bench. The crypto-bearing packages must
// use crypto/rand exclusively — a math/rand nonce or key is the classic
// catastrophic AEAD failure.
func checkMathRand(m *Module, p *Package) []Finding {
	rel := relDir(m, p)
	if mathRandExemptDirs[rel] {
		return nil
	}
	var out []Finding
	for _, f := range p.Syntax {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path != "math/rand" && path != "math/rand/v2" {
				continue
			}
			msg := "import of " + path + " is forbidden outside _test.go files and internal/workload, internal/bench"
			if cryptoBearingDirs[rel] {
				msg = "crypto-bearing package imports " + path + "; key and nonce material must come from crypto/rand exclusively"
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(spec.Pos()),
				Rule: RuleMathRand,
				Msg:  msg,
			})
		}
	}
	return out
}
