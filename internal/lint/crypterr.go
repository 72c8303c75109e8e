package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkCryptoErr implements unchecked-crypto-error: discarding the error
// (or Verify's bool) from a cryptographic call is an error, not a
// warning. A swallowed rand.Read failure silently yields an all-zero
// key; a swallowed Open error accepts forged ciphertext.
func checkCryptoErr(m *Module, p *Package) []Finding {
	var out []Finding
	flag := func(n ast.Node, fn *types.Func, what string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(n.Pos()),
			Rule: RuleCryptoErr,
			Msg:  what + " of crypto call " + fn.Pkg().Name() + "." + fn.Name() + " discarded; crypto failures must be handled",
		})
	}
	for _, file := range p.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					if fn, what := cryptoResultToCheck(m, p, call); fn != nil {
						flag(stmt, fn, what)
					}
				}
			case *ast.GoStmt:
				if fn, what := cryptoResultToCheck(m, p, stmt.Call); fn != nil {
					flag(stmt, fn, what)
				}
			case *ast.DeferStmt:
				if fn, what := cryptoResultToCheck(m, p, stmt.Call); fn != nil {
					flag(stmt, fn, what)
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, what := cryptoResultToCheck(m, p, call)
				if fn == nil {
					return true
				}
				// The checked result is the last one; it is discarded when
				// the final LHS is the blank identifier.
				last := stmt.Lhs[len(stmt.Lhs)-1]
				if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
					flag(stmt, fn, what)
				}
			}
			return true
		})
	}
	return out
}

// cryptoResultToCheck reports whether call invokes a crypto-relevant
// function whose final result demands checking, returning that function
// and a description of the discarded result ("error result" / "verification
// result"). The call is crypto-relevant when its callee is defined in a
// crypto/* standard-library package or in one of the repo's key-bearing
// packages.
func cryptoResultToCheck(m *Module, p *Package, call *ast.CallExpr) (*types.Func, string) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	if !cryptoRelevantPkg(m, fn.Pkg().Path()) {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, ""
	}
	res := sig.Results()
	if res.Len() == 0 {
		return nil, ""
	}
	last := res.At(res.Len() - 1).Type()
	if isErrorType(last) {
		return fn, "error result"
	}
	if b, ok := last.Underlying().(*types.Basic); ok && b.Kind() == types.Bool &&
		strings.Contains(fn.Name(), "Verify") {
		return fn, "verification result"
	}
	return nil, ""
}

// cryptoRelevantPkg reports whether a package path holds cryptographic
// code whose errors are security-relevant.
func cryptoRelevantPkg(m *Module, path string) bool {
	if path == "crypto" || strings.HasPrefix(path, "crypto/") {
		return true
	}
	rel := strings.TrimPrefix(path, m.Path+"/")
	return cryptoBearingDirs[rel]
}
