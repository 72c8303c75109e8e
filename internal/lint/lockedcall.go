package lint

// locked-callgraph: the interprocedural upgrade of lock-discipline's
// *Locked convention (DESIGN.md §8.2). A function whose name ends in
// "Locked" documents that its caller holds the guarding mutex; the
// old per-function rule could only check guarded *field* accesses.
// This rule checks the convention over the whole call graph instead:
// a *Locked function must be unreachable from any path that does not
// hold a lock.
//
// The check propagates a "possibly unheld" mark from the module's
// entry points (functions nobody in the module calls — the exported
// API, test hooks, dead code) down call and reference edges. A
// context stops the propagation when it visibly establishes the lock:
//
//   - it acquires a sync.Mutex/RWMutex in its own body (everything it
//     calls runs under that lock, flow-insensitively), or
//   - it is itself *Locked-named (its own callers are checked at
//     their call edges, which is what makes the rule compositional), or
//   - it is a function literal passed directly to a parameter whose
//     name ends in "Locked" (heldLiterals): the callee asserts by that
//     name that it runs the value with the lock held, as a *Locked
//     function's name asserts it for the function. This is how the
//     enclave's one entry (ecall) takes the lock for every operation's
//     body, which the rule then checks once, in the entry.
//
// Other function literals inherit through the graph naturally: the
// literal has a reference edge from its lexically enclosing context, so
// a closure created inside a locked region — including one handed to a
// *Locked helper like updateSupernodeLocked — is only as unheld as
// its encloser. The known blind spot is a closure that escapes a
// locked region and runs after the unlock (goroutines, stashed
// callbacks); lock-handoff designs of that shape carry a
// //lint:ignore with the reason, as before.

import (
	"go/ast"
	"go/types"
)

// checkLockedCall reports every unguarded use of a *Locked function in
// the module.
func checkLockedCall(m *Module) []Finding {
	g := m.callGraph()

	// acquires[n]: n's own body (excluding nested literals) takes a
	// mutex, so its callees run under the lock.
	// contract[n]: n is *Locked-named; by convention it runs held, and
	// each of its call edges is checked at the caller instead.
	// Literals passed to a *Locked parameter assert the same.
	acquires := make(map[*CGNode]bool)
	contract := make(map[*CGNode]bool)
	held := make(map[*ast.FuncLit]bool)
	for _, p := range m.Packages {
		for _, file := range p.Syntax {
			heldLiterals(p, file, held)
		}
	}
	for _, n := range g.Nodes {
		if n.Body != nil {
			acquires[n] = bodyAcquiresLock(n)
		}
		if n.Fn != nil && lockedNameSuffix(n.Fn.Name()) || n.Lit != nil && held[n.Lit] {
			contract[n] = true
		}
	}

	// Seed "possibly unheld" at the module's roots: declared functions
	// with no in-edges that do not assert the lock by name. Literals
	// are never roots — they always have a reference edge from their
	// lexical encloser.
	unheld := make(map[*CGNode]bool)
	var queue []*CGNode
	mark := func(n *CGNode) {
		if !unheld[n] {
			unheld[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range g.Nodes {
		if n.Pkg == nil || n.Lit != nil {
			continue
		}
		if len(g.In[n]) == 0 && !contract[n] {
			mark(n)
		}
	}
	// Propagate down edges through contexts that neither acquire nor
	// assert. Reference edges propagate too: a closure or method value
	// created in an unheld context may run unheld.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if acquires[n] {
			continue
		}
		for _, e := range g.Out[n] {
			c := e.Callee
			if c.Pkg == nil || contract[c] {
				continue
			}
			mark(c)
		}
	}

	var out []Finding
	for _, n := range g.Nodes {
		if n.Pkg == nil {
			continue
		}
		if !unheld[n] || acquires[n] {
			continue // every path to n holds, or n locks for itself
		}
		for _, e := range g.Out[n] {
			callee := e.Callee
			if callee.Fn == nil || !lockedNameSuffix(callee.Fn.Name()) {
				continue
			}
			if callee.Pkg == nil {
				continue // out-of-module *Locked names are not ours to police
			}
			what := "call to"
			if e.Ref {
				what = "reference to"
			}
			out = append(out, Finding{
				Pos:  n.Pkg.Fset.Position(e.Site.Pos()),
				Rule: RuleLockedCall,
				Msg: what + " " + callee.Name + " (name asserts the lock is held) from " +
					n.Name + ", which is reachable without the lock and does not take it",
			})
		}
	}
	return out
}

// bodyAcquiresLock reports whether n's own statements (not nested
// literals') call Lock/RLock on a sync mutex.
func bodyAcquiresLock(n *CGNode) bool {
	found := false
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literal: its own context
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if method, ok := syncLockMethod(n.Pkg, sel); ok && (method == "Lock" || method == "RLock") {
			found = true
			return false
		}
		return true
	})
	return found
}

// heldLiterals adds to held every function literal under root that is
// passed directly to a parameter whose name ends in "Locked" — the
// documented idiom for a function value the callee runs with the lock
// held (DESIGN.md §8.2).
func heldLiterals(p *Package, root ast.Node, held map[*ast.FuncLit]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || p.Info.Types[call.Fun].IsType() {
			return true // not a call, or a conversion
		}
		sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
		if !ok || sig.Params().Len() == 0 {
			return true
		}
		for i, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			param := sig.Params().At(min(i, sig.Params().Len()-1)) // a variadic tail
			if lockedNameSuffix(param.Name()) {
				held[lit] = true
			}
		}
		return true
	})
}

// lockedNameSuffix reports the repo's *Locked naming convention
// ("Unlocked" is the opposite claim and must not match).
func lockedNameSuffix(name string) bool {
	return hasSuffixFold(name, "locked") && !hasSuffixFold(name, "unlocked")
}
