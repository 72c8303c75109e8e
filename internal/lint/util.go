package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// cryptoBearingDirs are the module-relative packages whose code handles
// key material; their calls are always crypto-relevant for error checking.
var cryptoBearingDirs = map[string]bool{
	"internal/enclave":  true,
	"internal/sgx":      true,
	"internal/gcmsiv":   true,
	"internal/metadata": true,
	"internal/cryptofs": true,
}

// enclaveBoundaryDirs are the packages forming the trusted enclave side
// of the boundary rule.
var enclaveBoundaryDirs = map[string]bool{
	"internal/enclave": true,
	"internal/sgx":     true,
}

// exprText renders an expression to source text (for matching the "same
// lock variable" by structure).
func exprText(p *Package, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// baseExpr strips parentheses, slicing, indexing and address-of so
// (s.mu), &s.mu and s.locks[i] resolve to the underlying expression.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op.String() == "&" {
				e = v.X
				continue
			}
			return e
		default:
			return e
		}
	}
}

// rightmostIdent returns the identifier naming an expression's object:
// the ident itself, or the Sel of a selector chain.
func rightmostIdent(e ast.Expr) *ast.Ident {
	switch v := baseExpr(e).(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return v.Sel
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package function), or nil.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// funcScopes yields every function body in the package's primary files:
// top-level declarations and, nested inside them, function literals. name
// is the enclosing declaration's name (method names unqualified).
type funcScope struct {
	name string
	decl *ast.FuncDecl // nil for file-scope (shouldn't happen)
	body *ast.BlockStmt
}

func packageFuncs(p *Package) []funcScope {
	var out []funcScope
	for _, f := range p.Syntax {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, funcScope{name: fd.Name.Name, decl: fd, body: fd.Body})
		}
	}
	return out
}

// relDir returns the module-relative directory of a package ("" for
// the root package), so rules can match directories like
// "internal/workload" without hard-coding the module name.
func relDir(m *Module, p *Package) string {
	return strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, m.Path), "/")
}

// hasSuffixFold reports a case-insensitive suffix match.
func hasSuffixFold(s, suffix string) bool {
	return len(s) >= len(suffix) && strings.EqualFold(s[len(s)-len(suffix):], suffix)
}
