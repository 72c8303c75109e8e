package lint

// Call graph construction for the interprocedural rules (DESIGN.md §8.2).
//
// Nodes are declared functions and methods (identified by their
// *types.Func), function literals (one node per *ast.FuncLit, linked to
// the lexically enclosing node), and bodyless externals: stdlib
// functions and interface methods referenced by module code. Edges come
// in two flavours:
//
//   - call edges, from a syntactic call expression whose callee
//     resolves statically (package functions, methods, and interface
//     methods — the interface method itself is the callee node, which
//     over-approximates dynamic dispatch in the direction reachability
//     rules need);
//   - ref edges, recorded wherever a function is *mentioned* without
//     being called: method values, functions passed as arguments or
//     assigned to variables, and every function literal at its
//     definition site. A ref is a possible future call, so reachability
//     queries may traverse them.
//
// The graph is deliberately context-insensitive: one node per function,
// edges unioned over every call site. That is the right precision/cost
// point for locked-callgraph's reachability walk.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CGNode is one function in the call graph.
type CGNode struct {
	// Fn is the declared function or method, nil for function literals.
	// For out-of-module functions (stdlib, interface methods) Fn is set
	// but Body is nil.
	Fn *types.Func
	// Lit is the literal this node represents, nil for declared
	// functions.
	Lit *ast.FuncLit
	// Pkg is the module package holding the body (nil for externals).
	Pkg *Package
	// Encl is the lexically enclosing node, set only for literals.
	Encl *CGNode
	// Body is the function body; nil for externals and interface
	// methods.
	Body *ast.BlockStmt
	// Name is the stable display name: "internal/enclave.Touch",
	// "internal/enclave.(Enclave).drainLocked", or
	// "internal/enclave.SyncMetadata$1" for literals.
	Name string
}

// CGEdge is one caller→callee relationship.
type CGEdge struct {
	Caller, Callee *CGNode
	// Site is the call expression, the referencing identifier, or the
	// function literal.
	Site ast.Node
	// Ref marks a reference (possible call) rather than a direct call.
	Ref bool
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	mod   *Module
	byFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
	Nodes []*CGNode
	Out   map[*CGNode][]*CGEdge
	In    map[*CGNode][]*CGEdge
}

// callGraph builds (and caches) the module's call graph.
func (m *Module) callGraph() *CallGraph {
	if m.cg != nil {
		return m.cg
	}
	g := &CallGraph{
		mod:   m,
		byFn:  make(map[*types.Func]*CGNode),
		byLit: make(map[*ast.FuncLit]*CGNode),
		Out:   make(map[*CGNode][]*CGEdge),
		In:    make(map[*CGNode][]*CGEdge),
	}
	for _, p := range m.Packages {
		for _, file := range p.Syntax {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := g.ensureFn(fn)
				node.Pkg, node.Body = p, fd.Body
				g.walkBody(p, node, fd.Body)
			}
		}
	}
	m.cg = g
	return g
}

// ensureFn interns the node for a declared (or external) function.
func (g *CallGraph) ensureFn(fn *types.Func) *CGNode {
	if n, ok := g.byFn[fn]; ok {
		return n
	}
	n := &CGNode{Fn: fn, Name: g.fnName(fn)}
	g.byFn[fn] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

// fnName renders the stable display name of a declared function.
func (g *CallGraph) fnName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		if rel := strings.TrimPrefix(pkg, g.mod.Path+"/"); rel != pkg {
			pkg = rel
		} else if pkg == g.mod.Path {
			pkg = "."
		}
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		} else if iface, ok := recv.Underlying().(*types.Interface); ok && iface != nil {
			name = "(interface)." + name
		}
	}
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}

// walkBody records every call and function reference in body, with ctx
// as the calling node; function literals become child nodes walked in
// their own context.
func (g *CallGraph) walkBody(p *Package, ctx *CGNode, body *ast.BlockStmt) {
	// Identifiers appearing as the operator of a direct call: these get
	// call edges, so the generic ident pass must not double-record them
	// as refs.
	callIdents := make(map[*ast.Ident]bool)
	litIndex := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			litIndex++
			child := g.ensureLit(p, ctx, v, litIndex)
			g.addEdge(&CGEdge{Caller: ctx, Callee: child, Site: v, Ref: true})
			g.walkBody(p, child, v.Body)
			return false
		case *ast.CallExpr:
			switch fun := ast.Unparen(v.Fun).(type) {
			case *ast.Ident:
				callIdents[fun] = true
			case *ast.SelectorExpr:
				callIdents[fun.Sel] = true
			case *ast.FuncLit:
				// Immediately-invoked literal: the FuncLit case adds the
				// node and walks it; record the direct call too.
				litIndex++
				child := g.ensureLit(p, ctx, fun, litIndex)
				litIndex-- // ensureLit is idempotent; keep numbering stable
				g.addEdge(&CGEdge{Caller: ctx, Callee: child, Site: v})
			}
			if fn := calleeFunc(p, v); fn != nil {
				g.addEdge(&CGEdge{Caller: ctx, Callee: g.ensureFn(fn), Site: v})
			}
			return true
		case *ast.Ident:
			if callIdents[v] {
				return true
			}
			if fn, ok := p.Info.Uses[v].(*types.Func); ok {
				g.addEdge(&CGEdge{Caller: ctx, Callee: g.ensureFn(fn), Site: v, Ref: true})
			}
			return true
		}
		return true
	})
}

// ensureLit interns the node of a function literal.
func (g *CallGraph) ensureLit(p *Package, encl *CGNode, lit *ast.FuncLit, idx int) *CGNode {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	n := &CGNode{
		Lit:  lit,
		Pkg:  p,
		Encl: encl,
		Body: lit.Body,
		Name: fmt.Sprintf("%s$%d", encl.Name, idx),
	}
	g.byLit[lit] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *CallGraph) addEdge(e *CGEdge) {
	g.Out[e.Caller] = append(g.Out[e.Caller], e)
	g.In[e.Callee] = append(g.In[e.Callee], e)
}

// DumpEdges renders the graph as sorted "caller -> callee [ref]" lines
// for golden tests, restricted to edges whose caller lives in the
// module.
func (g *CallGraph) DumpEdges() []string {
	var out []string
	for n, edges := range g.Out {
		if n.Pkg == nil {
			continue
		}
		for _, e := range edges {
			line := n.Name + " -> " + e.Callee.Name
			if e.Ref {
				line += " [ref]"
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	// Dedup: one logical edge can be recorded from several sites.
	var uniq []string
	for _, l := range out {
		if len(uniq) == 0 || uniq[len(uniq)-1] != l {
			uniq = append(uniq, l)
		}
	}
	return uniq
}
