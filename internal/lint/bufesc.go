package lint

// buffer-escape: the ownership rules of the pooled chunk-buffer arena
// (internal/parallel.Arena, DESIGN.md §14), machine-checked. A function
// that leases a buffer with Arena.Get/GetSensitive owns it only until
// Release; afterwards the arena hands the same backing array to the
// next leaseholder (and zeroes sensitive ones), so any surviving
// reference reads another lease's bytes — or leaks plaintext into it.
//
// Flagged, per function that leases locally:
//
//   - use after release: any statement mentioning the buffer variable
//     after a non-deferred Release in the same block (a deferred
//     Release is the idiomatic lease scope and is never a violation);
//   - escape via return: returning the *Buf, its .B bytes, or a slice
//     alias of them — the lease ends with the function, so the caller
//     would receive a dangling view into the pool;
//   - escape via retention: assigning the buffer or an alias into a
//     struct field or package-level variable, which outlives the lease.
//
// Handing the bytes to a call (store.Put, conn.Write, gcm.Seal) is
// allowed: the boundary contract requires callees to copy before
// returning, which the arena's pointer-identity tests pin. Closures
// that return the bytes to their lexical encloser (the timedChunkCrypto
// pattern) stay within the lease and are allowed too.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// arenaPkgSuffix identifies the pool's home package; the rule skips it
// (the implementation must touch released buffers to recycle them).
const arenaPkgSuffix = "internal/parallel"

func checkBufferEscape(m *Module, p *Package) []Finding {
	if relDir(m, p) == arenaPkgSuffix {
		return nil
	}
	var out []Finding
	for _, fs := range packageFuncs(p) {
		out = append(out, bufferEscapeInFunc(p, fs)...)
	}
	return out
}

func bufferEscapeInFunc(p *Package, fs funcScope) []Finding {
	leased := leasedBufVars(p, fs.body)
	if len(leased) == 0 {
		return nil
	}
	aliases := bufAliases(p, fs.body, leased)
	var out []Finding
	out = append(out, useAfterRelease(p, fs.body, leased)...)
	out = append(out, bufEscapes(p, fs.body, leased, aliases)...)
	return out
}

// leasedBufVars collects the local variables bound to an
// Arena.Get/GetSensitive result anywhere in body.
func leasedBufVars(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	leased := make(map[*types.Var]bool)
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isArenaLease(p, call) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := objectOf(p, id).(*types.Var); ok {
				leased[v] = true
			}
		}
		return true
	})
	return leased
}

// isArenaLease reports a call to internal/parallel's Arena.Get or
// Arena.GetSensitive.
func isArenaLease(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), arenaPkgSuffix) {
		return false
	}
	if fn.Name() != "Get" && fn.Name() != "GetSensitive" {
		return false
	}
	return receiverTypeName(fn) == "Arena"
}

// bufAliases collects simple slice aliases of leased buffers: vars
// assigned from v.B or a slice expression over it.
func bufAliases(p *Package, body *ast.BlockStmt, leased map[*types.Var]bool) map[*types.Var]bool {
	aliases := make(map[*types.Var]bool)
	ast.Inspect(body, func(nd ast.Node) bool {
		as, ok := nd.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !exprIsBufBytes(p, rhs, leased) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := objectOf(p, id).(*types.Var); ok {
					aliases[v] = true
				}
			}
		}
		return true
	})
	return aliases
}

// exprIsBufBytes reports an expression that resolves to a leased
// buffer's bytes: v.B, v.B[i:j], v.B[i:j:k], with parens stripped.
// Indexing (v.B[0]) yields a byte value, not an aliasing view, so only
// slice expressions are unwrapped.
func exprIsBufBytes(p *Package, e ast.Expr, leased map[*types.Var]bool) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
			continue
		case *ast.SliceExpr:
			e = v.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "B" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := objectOf(p, id).(*types.Var)
	return ok && leased[v]
}

// useAfterRelease scans every statement list for mentions of a leased
// variable after a non-deferred v.Release() in the same list.
func useAfterRelease(p *Package, body *ast.BlockStmt, leased map[*types.Var]bool) []Finding {
	var out []Finding
	ast.Inspect(body, func(nd ast.Node) bool {
		block, ok := nd.(*ast.BlockStmt)
		if !ok {
			return true
		}
		released := make(map[*types.Var]bool)
		for _, stmt := range block.List {
			// Mentions to audit: for an assignment, only the right-hand
			// sides — rebinding the variable (a fresh lease) is the start
			// of a new ownership span, not a use of the old one.
			scopes := []ast.Node{stmt}
			if as, ok := stmt.(*ast.AssignStmt); ok {
				scopes = scopes[:0]
				for _, rhs := range as.Rhs {
					scopes = append(scopes, rhs)
				}
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := objectOf(p, id).(*types.Var); ok {
							delete(released, v)
						}
					} else {
						scopes = append(scopes, lhs) // x[i] = ..., s.f = ...
					}
				}
			}
			for v := range released {
				for _, scope := range scopes {
					if site := firstMention(p, scope, v); site != nil {
						out = append(out, Finding{
							Pos:  p.Fset.Position(site.Pos()),
							Rule: RuleBufferEscape,
							Msg:  "use of pooled buffer " + v.Name() + " after Release; the arena may have re-leased its backing array",
						})
						delete(released, v) // one finding per release point
						break
					}
				}
			}
			if v := releasedBufVar(p, stmt, leased); v != nil {
				released[v] = true
			}
		}
		return true
	})
	return out
}

// releasedBufVar returns the leased variable a statement releases via a
// direct (non-deferred) v.Release() call, or nil.
func releasedBufVar(p *Package, stmt ast.Stmt, leased map[*types.Var]bool) *types.Var {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := objectOf(p, id).(*types.Var)
	if !ok || !leased[v] {
		return nil
	}
	return v
}

// firstMention returns the first identifier under n resolving to v.
func firstMention(p *Package, n ast.Node, v *types.Var) ast.Node {
	var site ast.Node
	ast.Inspect(n, func(nd ast.Node) bool {
		if site != nil {
			return false
		}
		if id, ok := nd.(*ast.Ident); ok && p.Info.Uses[id] == v {
			site = id
			return false
		}
		return true
	})
	return site
}

// bufEscapes flags returns and retained assignments of leased buffers
// or their aliases. Returns inside nested function literals are the
// closure handing bytes back to its encloser within the lease — those
// are fine; only the leasing function's own returns end the lease.
func bufEscapes(p *Package, body *ast.BlockStmt, leased, aliases map[*types.Var]bool) []Finding {
	escapee := func(e ast.Expr) (string, bool) {
		if exprIsBufBytes(p, e, leased) {
			return "its bytes", true
		}
		if id, ok := ast.Unparen(baseExpr(e)).(*ast.Ident); ok {
			if v, ok := objectOf(p, id).(*types.Var); ok {
				if leased[v] {
					return v.Name(), true
				}
				if aliases[v] {
					return "alias " + v.Name(), true
				}
			}
		}
		return "", false
	}
	var out []Finding
	flag := func(pos token.Pos, what, how string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(pos),
			Rule: RuleBufferEscape,
			Msg:  "pooled buffer (" + what + ") escapes " + how + "; the lease ends with this function and the arena will recycle the backing array",
		})
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch v := nd.(type) {
			case *ast.FuncLit:
				if nd != n {
					walk(v.Body, true)
					return false
				}
			case *ast.ReturnStmt:
				if inLit {
					return true
				}
				for _, res := range v.Results {
					if what, ok := escapee(res); ok {
						flag(res.Pos(), what, "via return")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					if i >= len(v.Rhs) {
						break
					}
					what, ok := escapee(v.Rhs[i])
					if !ok {
						continue
					}
					if sel, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); isSel {
						if fld, isVar := p.Info.Uses[sel.Sel].(*types.Var); isVar && fld.IsField() {
							flag(v.Pos(), what, "into struct field "+sel.Sel.Name)
						}
						continue
					}
					if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
						if obj, isVar := objectOf(p, id).(*types.Var); isVar && obj.Parent() == p.Types.Scope() {
							flag(v.Pos(), what, "into package-level variable "+id.Name)
						}
					}
				}
			}
			return true
		})
	}
	walk(body, false)
	return out
}
