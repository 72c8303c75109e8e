package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// guardedByRe matches the field annotation "// guarded by mu".
var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// checkLocks implements lock-discipline, the §V-A serialization
// invariant, as two conservative approximations:
//
//  1. pairing — a Lock()/RLock() on a sync.Mutex/RWMutex must have a
//     matching Unlock()/RUnlock() on the same lock expression somewhere
//     in the same function (deferred, on a return path, or handed out as
//     a method value such as `release := mu.Unlock`). Lock-handoff
//     designs (lock here, unlock in a callback elsewhere) must carry a
//     //lint:ignore with the reason.
//  2. guarded fields — a struct field annotated "// guarded by mu" may
//     only be read or written in functions that lock mu, except in
//     functions whose name ends in "Locked" (this repo's convention for
//     helpers that document the caller holds the lock) and in function
//     literals passed to a parameter so named (heldLiterals), which the
//     callee runs with the lock held.
func checkLocks(m *Module, p *Package) []Finding {
	var out []Finding
	guarded := guardedFields(p)
	for _, fn := range packageFuncs(p) {
		out = append(out, checkLockPairing(p, fn)...)
		if len(guarded) > 0 {
			out = append(out, checkGuardedAccess(p, fn, guarded)...)
		}
	}
	return out
}

// syncLockMethod reports whether sel names a method of sync.Mutex or
// sync.RWMutex, returning the method name.
func syncLockMethod(p *Package, sel *ast.SelectorExpr) (string, bool) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return fn.Name(), true
	}
	return "", false
}

var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// checkLockPairing flags Lock/RLock calls with no same-function Unlock.
func checkLockPairing(p *Package, fn funcScope) []Finding {
	type lockEvent struct {
		recv string
		kind string
		pos  ast.Node
	}
	var locks []lockEvent
	released := make(map[string]bool) // recv + "." + method seen anywhere

	ast.Inspect(fn.body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method, ok := syncLockMethod(p, sel)
		if !ok {
			return true
		}
		recv := exprText(p, sel.X)
		switch method {
		case "Unlock", "RUnlock":
			// A call, a deferred call, or a method value handed out as a
			// release closure all count as the lock being released.
			released[recv+"."+method] = true
		}
		return true
	})
	ast.Inspect(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method, ok := syncLockMethod(p, sel)
		if !ok || (method != "Lock" && method != "RLock") {
			return true
		}
		locks = append(locks, lockEvent{recv: exprText(p, sel.X), kind: method, pos: call})
		return true
	})

	var out []Finding
	for _, l := range locks {
		if released[l.recv+"."+unlockFor[l.kind]] {
			continue
		}
		out = append(out, Finding{
			Pos:  p.Fset.Position(l.pos.Pos()),
			Rule: RuleLocks,
			Msg: l.recv + "." + l.kind + "() in " + fn.name + " has no matching " +
				unlockFor[l.kind] + " in the same function",
		})
	}
	return out
}

// guardInfo records one "// guarded by mu" annotation.
type guardInfo struct {
	structName string
	fieldName  string
	mutex      string
}

// guardedFields collects annotated struct fields, keyed by the field's
// types.Var so accesses resolve regardless of receiver spelling.
func guardedFields(p *Package) map[*types.Var]guardInfo {
	out := make(map[*types.Var]guardInfo)
	for _, file := range p.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				mu := guardAnnotation(f)
				if mu == "" {
					continue
				}
				for _, name := range f.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						out[v] = guardInfo{structName: ts.Name.Name, fieldName: name.Name, mutex: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, if annotated.
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkGuardedAccess flags guarded-field accesses in functions that never
// lock the guarding mutex.
func checkGuardedAccess(p *Package, fn funcScope, guarded map[*types.Var]guardInfo) []Finding {
	if hasSuffixFold(fn.name, "Locked") {
		return nil // convention: caller holds the lock
	}

	// Mutex field names locked anywhere in this function.
	locked := make(map[string]bool)
	ast.Inspect(fn.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if method, ok := syncLockMethod(p, sel); ok && (method == "Lock" || method == "RLock") {
			if id := rightmostIdent(sel.X); id != nil {
				locked[id.Name] = true
			}
		}
		return true
	})

	held := make(map[*ast.FuncLit]bool)
	heldLiterals(p, fn.body, held)
	var out []Finding
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && held[lit] {
			return false // runs with the lock held
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		g, ok := guarded[obj]
		if !ok || locked[g.mutex] {
			return true
		}
		out = append(out, Finding{
			Pos:  p.Fset.Position(sel.Sel.Pos()),
			Rule: RuleLocks,
			Msg: fn.name + " touches " + g.structName + "." + g.fieldName +
				" (guarded by " + g.mutex + ") without locking " + g.mutex,
		})
		return true
	})
	return out
}
