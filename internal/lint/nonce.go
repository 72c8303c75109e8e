package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkNonce implements nonce-hygiene: the nonce handed to an AEAD
// Seal/Open must never be a constant, a reused package-level variable, or
// a never-written zero buffer. Legitimate nonces are freshly drawn from
// crypto/rand, written by a counter/encoding helper, or carried in from
// the peer's data (Open's nonce travels with the ciphertext).
//
// The analysis is a conservative same-function approximation: a local
// nonce buffer is "fresh" once it is passed to crypto/rand.Read,
// io.ReadFull(rand.Reader, ...), an encoding/binary Put helper, or copy,
// or once it is assigned from any non-make call, parameter, field, or
// slice of incoming data. What remains — literals, constants,
// package-level variables, and zero-initialized buffers used directly —
// is exactly the catastrophic-reuse surface of GCM (§VI-A).
func checkNonce(m *Module, p *Package) []Finding {
	var out []Finding
	for _, fn := range packageFuncs(p) {
		fresh := freshNonceSources(p, fn.body)
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			nonce, op, ok := aeadNonceArg(p, call)
			if !ok {
				return true
			}
			if msg, bad := classifyNonce(p, fn, fresh, nonce, op); bad {
				out = append(out, Finding{
					Pos:  p.Fset.Position(nonce.Pos()),
					Rule: RuleNonce,
					Msg:  msg,
				})
			}
			return true
		})
	}
	return out
}

// aeadNonceArg reports whether call is an AEAD Seal/Open method call
// (four []byte parameters, crypto/cipher.AEAD shape) and returns its
// nonce argument.
func aeadNonceArg(p *Package, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	op := sel.Sel.Name
	if op != "Seal" && op != "Open" {
		return nil, "", false
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Variadic() {
		return nil, "", false
	}
	params := sig.Params()
	if params.Len() != 4 {
		return nil, "", false
	}
	for i := 0; i < 4; i++ {
		if !isByteSlice(params.At(i).Type()) {
			return nil, "", false
		}
	}
	res := sig.Results()
	switch op {
	case "Seal":
		if res.Len() != 1 || !isByteSlice(res.At(0).Type()) {
			return nil, "", false
		}
	case "Open":
		if res.Len() != 2 || !isByteSlice(res.At(0).Type()) || !isErrorType(res.At(1).Type()) {
			return nil, "", false
		}
	}
	if len(call.Args) != 4 {
		return nil, "", false
	}
	return call.Args[1], op, true
}

// freshNonceSources scans a function body for buffers that acquire
// entropy or structured (counter) content, keyed by rendered expression
// text of the buffer base (so rand.Read(ctx.IV[:]) marks "ctx.IV").
func freshNonceSources(p *Package, body *ast.BlockStmt) map[string]bool {
	fresh := make(map[string]bool)
	mark := func(e ast.Expr) {
		if t := exprText(p, baseExpr(e)); t != "" {
			fresh[t] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "copy" && len(call.Args) == 2 {
				mark(call.Args[0]) // contents inherited from elsewhere
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			pkgPath := ""
			if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil {
				pkgPath = fn.Pkg().Path()
			}
			switch {
			case pkgPath == "crypto/rand" && name == "Read":
				mark(call.Args[0])
			case pkgPath == "io" && name == "ReadFull" && len(call.Args) == 2 &&
				strings.Contains(exprText(p, call.Args[0]), "rand.Reader"):
				mark(call.Args[1])
			case pkgPath == "encoding/binary" && strings.HasPrefix(name, "Put"):
				mark(call.Args[0]) // counter-style nonce construction
			}
		}
		return true
	})
	return fresh
}

// classifyNonce decides whether a nonce expression is acceptable.
func classifyNonce(p *Package, fn funcScope, fresh map[string]bool, nonce ast.Expr, op string) (string, bool) {
	e := ast.Unparen(nonce)

	// Type conversions ([]byte("...")): recurse into the operand.
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return classifyNonce(p, fn, fresh, call.Args[0], op)
		}
		return "", false // helper call: derives the nonce elsewhere
	}

	switch e.(type) {
	case *ast.BasicLit, *ast.CompositeLit:
		return "constant " + op + " nonce: a fixed nonce destroys AEAD security on the second use", true
	}

	base := baseExpr(e)
	if _, ok := base.(*ast.CallExpr); ok {
		return "", false // nonce produced by a helper call
	}
	obj := objectOf(p, base)
	if obj == nil {
		return "", false
	}
	if _, isConst := obj.(*types.Const); isConst {
		return "constant " + op + " nonce: a fixed nonce destroys AEAD security on the second use", true
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return "", false
	}
	if p.Types != nil && v.Parent() == p.Types.Scope() {
		return "package-level variable " + v.Name() + " reused as " + op + " nonce; derive a fresh nonce per call", true
	}
	if v.IsField() || isParamOf(p, fn, v) {
		// Fields and parameters carry data whose freshness is the
		// producer's responsibility (checked at its own definition site).
		return "", false
	}
	if fresh[exprText(p, base)] {
		return "", false
	}
	if localIsDataDerived(p, fn.body, v) {
		return "", false
	}
	return "nonce " + v.Name() + " is not derived from crypto/rand or a counter helper (zero buffer used directly)", true
}

// isParamOf reports whether v is a parameter (or receiver) of the
// function declaration enclosing the use.
func isParamOf(p *Package, fn funcScope, v *types.Var) bool {
	if fn.decl == nil {
		return false
	}
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if p.Info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(fn.decl.Recv) || check(fn.decl.Type.Params) || check(fn.decl.Type.Results)
}

// localIsDataDerived reports whether local variable v is ever assigned
// from something other than a zero-initializing make/new or literal: a
// function call, a parameter, a field, or a slice of incoming data.
func localIsDataDerived(p *Package, body *ast.BlockStmt, v *types.Var) bool {
	derived := false
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || derived {
			return !derived
		}
		for i, lhs := range assign.Lhs {
			if objectOf(p, baseExpr(lhs)) != v {
				continue
			}
			if i >= len(assign.Rhs) { // multi-value: x, err := f()
				if len(assign.Rhs) == 1 {
					if rhs, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr); ok && !isZeroAlloc(rhs) {
						derived = true
					}
				}
				continue
			}
			if rhsDerivesData(p, assign.Rhs[i]) {
				derived = true
			}
		}
		return !derived
	})
	return derived
}

// isZeroAlloc reports a make/new builtin call (zero-initialized buffer).
func isZeroAlloc(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && (id.Name == "make" || id.Name == "new")
}

// rhsDerivesData reports whether an assignment RHS carries real data
// (anything but a fresh zero allocation or a literal).
func rhsDerivesData(p *Package, rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		return !isZeroAlloc(e)
	case *ast.BasicLit, *ast.CompositeLit:
		return false
	default:
		return true // param, field, slice expr, selector, ...
	}
}
