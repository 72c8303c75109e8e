package lint

// dirty-before-flush: the write-back invariant of DESIGN.md §12,
// machine-checked. In internal/enclave, any function that mutates
// dirnode/filenode state — a call to a mutating metadata method
// (Dirnode.Insert/Remove, Filenode.EncryptContent*) or an assignment
// to a field of a metadata node — must hand the mutation to the
// write-back layer before returning: transitively reach a
// dirty-marking or flush-barrier function (mark*, stageDelete*,
// *flush*, *drain*, or one that itself installs a metadata node in a
// dirty-set node). Otherwise the mutation lives only in the decrypted
// cache and is silently lost at the next drain or crash.
//
// Two classes of functions are exempt:
//
//   - the flush machinery itself (barrier-named functions replaying
//     logs or rewriting nodes mid-drain), and
//   - helpers reachable *only* from barriers — e.g. a replay helper
//     the drain calls; the drain is the flush.
//
// Everything else either marks/flushes or carries a //lint:ignore
// explaining who flushes on its behalf.

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkDirtyFlush is the per-package shim over the module-wide pass.
func checkDirtyFlush(m *Module, p *Package) []Finding {
	if p.Info == nil || relDir(m, p) != dirtyFlushDir {
		return nil
	}
	var out []Finding
	for _, f := range m.dirtyFlushFindings() {
		if packageOwnsFile(p, f.Pos.Filename) {
			out = append(out, f)
		}
	}
	return out
}

// dirtyFlushFindings computes (once) the module's write-back
// violations.
func (m *Module) dirtyFlushFindings() []Finding {
	if m.dirtyF != nil {
		return *m.dirtyF
	}
	out := m.computeDirtyFlush()
	m.dirtyF = &out
	return out
}

func (m *Module) computeDirtyFlush() []Finding {
	g := m.callGraph()
	var enclavePkg *Package
	for _, p := range m.Packages {
		if p.RelPath(m.Path) == dirtyFlushDir {
			enclavePkg = p
		}
	}
	if enclavePkg == nil {
		return nil
	}

	reachesBarrier := make(map[*CGNode]int8)
	var out []Finding
	for _, n := range g.Nodes {
		if n.Pkg != enclavePkg || n.Body == nil {
			continue
		}
		root := n.Root()
		rootName := ""
		if root.Fn != nil {
			rootName = root.Fn.Name()
		}
		if dirtyBarrierName(rootName) {
			continue // the flush machinery itself
		}
		site := firstMutation(n)
		if site == nil {
			continue
		}
		// Compliant if the mutation's context — or any lexically
		// enclosing one (the mutation may sit in an Ecall closure whose
		// enclosing op flushes) — transitively reaches a barrier,
		// following ref edges too so closures handed to helpers count.
		compliant := false
		for c := n; c != nil; c = c.Encl {
			if g.Reaches(c, true, reachesBarrier, func(t *CGNode) bool {
				return t.Fn != nil && isBarrierNode(m, t)
			}) {
				compliant = true
				break
			}
		}
		if compliant {
			continue
		}
		// Or if it is internal to the flush path: every caller chain
		// passes through a barrier-named function.
		if onlyReachableFromBarriers(g, root) {
			continue
		}
		out = append(out, Finding{
			Pos:  n.Pkg.Fset.Position(site.Pos()),
			Rule: RuleDirtyFlush,
			Msg: n.Name + " mutates dirnode/filenode state but never reaches a markDirty/flush barrier;" +
				" the change is lost at the next write-back drain",
		})
	}
	return out
}

// isBarrierNode reports whether a node is a barrier of internal/enclave:
// a barrier-named function, or one that installs a metadata node in the
// dirty set with its own hands.
func isBarrierNode(m *Module, n *CGNode) bool {
	if n.Fn == nil || n.Fn.Pkg() == nil {
		return false
	}
	rel := strings.TrimPrefix(n.Fn.Pkg().Path(), m.Path+"/")
	return rel == dirtyFlushDir && (dirtyBarrierName(n.Fn.Name()) || installsDirtyNode(n))
}

// installsDirtyNode reports whether n's own body assigns a metadata
// node to a field of the dirty set's node type: the hand-off the mark*
// functions make, written inline.
func installsDirtyNode(n *CGNode) bool {
	if n.Body == nil || n.Pkg == nil || n.Pkg.Info == nil {
		return false
	}
	found := false
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if as, ok := nd.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				found = found || isDirtyNodeInstall(n.Pkg, lhs)
			}
		}
		return !found
	})
	return found
}

// isDirtyNodeInstall reports an assignment target that is a
// Dirnode/Filenode-typed field of internal/enclave's dirty-set node.
func isDirtyNodeInstall(p *Package, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fld, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !fld.IsField() {
		return false
	}
	owner, ok := namedElem(p.Info.Types[sel.X].Type)
	if !ok || owner.Obj().Name() != dirtySetNodeType || owner.Obj().Pkg() == nil ||
		!strings.HasSuffix(owner.Obj().Pkg().Path(), dirtyFlushDir) {
		return false
	}
	held, ok := namedElem(fld.Type())
	if !ok || held.Obj().Pkg() == nil || !strings.HasSuffix(held.Obj().Pkg().Path(), "internal/metadata") {
		return false
	}
	_, tracked := metadataMutators[held.Obj().Name()]
	return tracked
}

// namedElem returns the named type t is, or points to.
func namedElem(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// firstMutation returns the first metadata mutation in n's own body
// (nested literals are their own nodes), or nil.
func firstMutation(n *CGNode) ast.Node {
	var site ast.Node
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if site != nil {
			return false
		}
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		switch v := nd.(type) {
		case *ast.CallExpr:
			if isMetadataMutatorCall(n.Pkg, v) {
				site = v
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if isMetadataFieldWrite(n.Pkg, lhs) {
					site = v
					return false
				}
			}
		case *ast.IncDecStmt:
			if isMetadataFieldWrite(n.Pkg, v.X) {
				site = v
				return false
			}
		}
		return true
	})
	return site
}

// isMetadataMutatorCall reports a call to a configured mutating method
// of internal/metadata's node types.
func isMetadataMutatorCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/metadata") {
		return false
	}
	recv := receiverTypeName(fn)
	return metadataMutators[recv][fn.Name()]
}

// isMetadataFieldWrite reports an assignment target that is a field of
// a metadata Dirnode/Filenode.
func isMetadataFieldWrite(p *Package, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fld, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !fld.IsField() {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !strings.HasSuffix(named.Obj().Pkg().Path(), "internal/metadata") {
		return false
	}
	_, tracked := metadataMutators[named.Obj().Name()]
	return tracked
}

// receiverTypeName returns the bare receiver type name of a method
// ("" for package functions).
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// onlyReachableFromBarriers reports whether every declared-function
// caller chain of n passes through a barrier-named enclave function.
// A function with no module callers at all (dead or exported API) is
// NOT exempt: nothing proves a drain wraps it.
func onlyReachableFromBarriers(g *CallGraph, n *CGNode) bool {
	seen := map[*CGNode]bool{n: true}
	var walk func(c *CGNode) bool
	walk = func(c *CGNode) bool {
		callers := g.In[c]
		if len(callers) == 0 {
			return false
		}
		for _, e := range callers {
			caller := e.Caller.Root()
			if seen[caller] {
				continue
			}
			seen[caller] = true
			if caller.Fn != nil && isBarrierNode(g.mod, caller) {
				continue
			}
			if !walk(caller) {
				return false
			}
		}
		return true
	}
	return walk(n)
}
