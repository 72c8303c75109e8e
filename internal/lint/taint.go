package lint

// secret-taint: interprocedural tracking of raw key material into
// observable sinks (DESIGN.md §8.2). The rule mechanizes the DSN'19
// enclave-confidentiality argument one level deeper than
// enclave-boundary: not only may key material not sit on the exported
// ecall surface, it must never *flow* — through any chain of calls —
// into a place the untrusted world can read: formatted errors and log
// output, observability span tags, or bytes uploaded to the untrusted
// store. Flows that pass through a sealing/wrapping/encrypting
// function are clean; producing protected forms is the enclave's job.
//
// The engine is a flow-insensitive worklist over per-function
// summaries:
//
//	flows        param i reaches result j
//	sinkParams   param i reaches a sink inside the function (with the
//	             call chain, for diagnostics)
//	taintedRes   result j carries key material regardless of arguments
//
// Within one function, taint marks are per types.Object and are
// iterated to a local fixpoint; across functions, a summary change
// re-enqueues all callers (via the call graph) until the module
// converges. Struct fields that are *assigned* key material become
// module-global taint roots, so a key stashed in a field in one method
// and logged in another is still caught. Sources are name/type based
// (keyMaterialName, extended per package via taintExtraSources);
// sanitizers and sinks are likewise configurable in config.go.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// paramIdx conventions: receiver is index -1, parameters are 0-based.
// In taintVal bitsets, bit (i+1) encodes param i so the receiver is
// bit 0.
const maxTrackedParams = 62

type taintSrc struct {
	pos  token.Pos
	name string
}

// taintVal is the abstract taint of one value: which of the current
// function's parameters it may derive from, and any locally rooted key
// material sources (named vars/fields or tainted callee results).
type taintVal struct {
	params uint64
	srcs   []taintSrc
}

func (t taintVal) zero() bool { return t.params == 0 && len(t.srcs) == 0 }

func (t taintVal) union(o taintVal) taintVal {
	out := taintVal{params: t.params | o.params}
	out.srcs = append(append([]taintSrc(nil), t.srcs...), o.srcs...)
	if len(out.srcs) > 4 {
		out.srcs = out.srcs[:4] // diagnostics need one witness, not all
	}
	return out
}

func paramBit(i int) uint64 {
	if i < -1 || i >= maxTrackedParams {
		return 0
	}
	return 1 << uint(i+1)
}

// sinkChain describes how a parameter reaches a sink, e.g.
// "fmt.Errorf" or "helper → fmt.Errorf".
type sinkChain struct {
	desc string
	pos  token.Pos
}

// fnSummary is the interprocedural abstract of one function.
type fnSummary struct {
	// flows[j] is the bitset of params flowing into result j.
	flows map[int]uint64
	// sinkParams maps param index (by bit convention) to the sink
	// chain it reaches.
	sinkParams map[int]sinkChain
	// taintedRes marks results that carry key material independent of
	// the arguments, with a description of the source.
	taintedRes map[int]string
}

func newSummary() *fnSummary {
	return &fnSummary{
		flows:      make(map[int]uint64),
		sinkParams: make(map[int]sinkChain),
		taintedRes: make(map[int]string),
	}
}

func (s *fnSummary) equal(o *fnSummary) bool {
	if len(s.flows) != len(o.flows) || len(s.sinkParams) != len(o.sinkParams) ||
		len(s.taintedRes) != len(o.taintedRes) {
		return false
	}
	for k, v := range s.flows {
		if o.flows[k] != v {
			return false
		}
	}
	for k := range s.sinkParams {
		if _, ok := o.sinkParams[k]; !ok {
			return false
		}
	}
	for k := range s.taintedRes {
		if _, ok := o.taintedRes[k]; !ok {
			return false
		}
	}
	return true
}

// taintState is the module-wide fixpoint state.
type taintState struct {
	mod       *Module
	cg        *CallGraph
	summaries map[*types.Func]*fnSummary
	// fields assigned key material anywhere in the module, with a
	// description of where it came from.
	taintedFields map[*types.Var]string
	findings      []Finding
}

// checkTaint runs the module-wide secret-taint fixpoint and returns
// its findings.
func checkTaint(m *Module) []Finding {
	st := &taintState{
		mod:           m,
		cg:            m.callGraph(),
		summaries:     make(map[*types.Func]*fnSummary),
		taintedFields: make(map[*types.Var]string),
	}
	st.run()
	return st.findings
}

// moduleFns returns every declared module function node, in graph
// order.
func (st *taintState) moduleFns() []*CGNode {
	var out []*CGNode
	for _, n := range st.cg.Nodes {
		if n.Decl != nil && n.Pkg != nil {
			out = append(out, n)
		}
	}
	return out
}

func (st *taintState) run() {
	fns := st.moduleFns()
	// Worklist to fixpoint: a summary or field-set change re-enqueues
	// callers (or everyone, for fields — the module is small and field
	// changes are rare).
	inList := make(map[*CGNode]bool)
	var work []*CGNode
	push := func(n *CGNode) {
		if n != nil && !inList[n] && n.Decl != nil {
			inList[n] = true
			work = append(work, n)
		}
	}
	for _, n := range fns {
		push(n)
	}
	for steps := 0; len(work) > 0 && steps < 40*len(fns)+100; steps++ {
		n := work[0]
		work = work[1:]
		inList[n] = false
		sum, fieldsGrew := st.analyzeFn(n, nil)
		old := st.summaries[n.Fn]
		if old == nil || !old.equal(sum) {
			st.summaries[n.Fn] = sum
			for _, e := range st.cg.In[n] {
				push(e.Caller.Root())
			}
		}
		if fieldsGrew {
			for _, f := range fns {
				push(f)
			}
		}
	}
	// Reporting pass: summaries are stable, emit findings once.
	for _, n := range fns {
		st.analyzeFn(n, &st.findings)
	}
}

// fnEnv is the per-function analysis environment.
type fnEnv struct {
	st   *taintState
	pkg  *Package
	node *CGNode
	// paramOf maps a parameter object to its index (receiver -1).
	paramOf map[types.Object]int
	// resultVars maps named result objects to their index.
	resultVars map[types.Object]int
	vars       map[types.Object]taintVal
	sum        *fnSummary
	findings   *[]Finding
	fieldsGrew bool
	changed    bool
	reported   map[token.Pos]bool
}

// analyzeFn computes n's summary under the current module state. When
// findings is non-nil the pass also emits diagnostics.
func (st *taintState) analyzeFn(n *CGNode, findings *[]Finding) (*fnSummary, bool) {
	env := &fnEnv{
		st:         st,
		pkg:        n.Pkg,
		node:       n,
		paramOf:    make(map[types.Object]int),
		resultVars: make(map[types.Object]int),
		vars:       make(map[types.Object]taintVal),
		sum:        newSummary(),
		findings:   findings,
		reported:   make(map[token.Pos]bool),
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig != nil {
		if r := sig.Recv(); r != nil {
			env.paramOf[r] = -1
		}
		for i := 0; i < sig.Params().Len(); i++ {
			env.paramOf[sig.Params().At(i)] = i
		}
		for j := 0; j < sig.Results().Len(); j++ {
			if v := sig.Results().At(j); v.Name() != "" {
				env.resultVars[v] = j
			}
		}
	}
	// Parameters named (or typed) as key material are local sources:
	// the helper itself is where a `rootKey []byte` parameter lives.
	for obj, i := range env.paramOf {
		tv := taintVal{params: paramBit(i)}
		if isSourceObject(env.st.mod, obj) {
			tv.srcs = []taintSrc{{pos: obj.Pos(), name: obj.Name()}}
		}
		env.vars[obj] = tv
	}

	// Local fixpoint: flow-insensitive, so iterate the whole body until
	// the var map stops changing.
	for pass := 0; pass < 8; pass++ {
		env.changed = false
		env.walk(n.Body)
		if !env.changed {
			break
		}
	}
	// Emit on the very last pass only (walk records findings each call;
	// reported dedups within one analyzeFn, and the driver only passes
	// findings!=nil once per function).
	// Named results assigned anywhere contribute to the summary.
	for obj, j := range env.resultVars {
		env.recordResult(j, env.vars[obj])
	}
	return env.sum, env.fieldsGrew
}

// recordResult folds a result value's taint into the summary.
func (env *fnEnv) recordResult(j int, tv taintVal) {
	if tv.params != 0 {
		env.sum.flows[j] |= tv.params
	}
	if len(tv.srcs) > 0 {
		if _, ok := env.sum.taintedRes[j]; !ok {
			env.sum.taintedRes[j] = tv.srcs[0].name
		}
	}
}

func (env *fnEnv) markVar(obj types.Object, tv taintVal) {
	if obj == nil || tv.zero() {
		return
	}
	old := env.vars[obj]
	merged := old.union(tv)
	if merged.params != old.params || len(merged.srcs) != len(old.srcs) {
		env.vars[obj] = merged
		env.changed = true
	}
}

// walk processes every statement in body (including nested function
// literals, whose free-variable flows then land in the same
// environment — a closure formatting its enclosing function's key is
// that function's bug).
func (env *fnEnv) walk(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.AssignStmt:
			env.assign(v)
		case *ast.ValueSpec:
			env.valueSpec(v)
		case *ast.ReturnStmt:
			env.returnStmt(v)
		case *ast.RangeStmt:
			tv := env.taintOf(v.X)
			if !tv.zero() {
				if id, ok := v.Key.(*ast.Ident); ok {
					env.markVar(env.objOf(id), tv)
				}
				if id, ok := v.Value.(*ast.Ident); ok {
					env.markVar(env.objOf(id), tv)
				}
			}
		case *ast.CallExpr:
			env.checkCall(v)
		}
		return true
	})
}

func (env *fnEnv) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := env.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return env.pkg.Info.Uses[id]
}

// assign propagates RHS taint into LHS variables and fields.
func (env *fnEnv) assign(a *ast.AssignStmt) {
	// Tuple-from-call: x, y := f(...) — per-result taint.
	if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			for j, lhs := range a.Lhs {
				env.assignOne(lhs, env.callResultTaint(call, j))
			}
			return
		}
		// x, y := m[k], or range forms — fall through pairing zero vals.
	}
	for i, lhs := range a.Lhs {
		if i < len(a.Rhs) {
			rhs := a.Rhs[i]
			tv := env.taintOf(rhs)
			// Compound ops (+=) keep the existing taint; plain = also
			// unions (flow-insensitive over-approximation).
			env.assignOne(lhs, tv)
		}
	}
}

func (env *fnEnv) assignOne(lhs ast.Expr, tv taintVal) {
	if tv.zero() {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		env.markVar(env.objOf(l), tv)
	case *ast.SelectorExpr:
		// Field store: key material written into a struct field makes
		// the field a module-global taint root (source-rooted taint
		// only; see package comment for the approximation).
		if fld, ok := env.pkg.Info.Uses[l.Sel].(*types.Var); ok && fld.IsField() && len(tv.srcs) > 0 {
			if _, present := env.st.taintedFields[fld]; !present {
				env.st.taintedFields[fld] = tv.srcs[0].name
				env.fieldsGrew = true
				env.changed = true
			}
		}
	case *ast.IndexExpr:
		// buf[i] = k — taint the buffer.
		env.assignOne(l.X, tv)
	case *ast.StarExpr:
		env.assignOne(l.X, tv)
	}
}

func (env *fnEnv) valueSpec(v *ast.ValueSpec) {
	if len(v.Values) == 1 && len(v.Names) > 1 {
		if call, ok := ast.Unparen(v.Values[0]).(*ast.CallExpr); ok {
			for j, name := range v.Names {
				env.markVar(env.pkg.Info.Defs[name], env.callResultTaint(call, j))
			}
			return
		}
	}
	for i, name := range v.Names {
		if i < len(v.Values) {
			env.markVar(env.pkg.Info.Defs[name], env.taintOf(v.Values[i]))
		}
	}
}

func (env *fnEnv) returnStmt(r *ast.ReturnStmt) {
	for j, e := range r.Results {
		env.recordResult(j, env.taintOf(e))
	}
}

// taintOf evaluates the abstract taint of an expression.
func (env *fnEnv) taintOf(e ast.Expr) taintVal {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := env.objOf(v)
		if obj == nil {
			return taintVal{}
		}
		tv := env.vars[obj]
		if isSourceObject(env.st.mod, obj) {
			tv = tv.union(taintVal{srcs: []taintSrc{{pos: v.Pos(), name: obj.Name()}}})
		}
		return tv
	case *ast.SelectorExpr:
		if fld, ok := env.pkg.Info.Uses[v.Sel].(*types.Var); ok && fld.IsField() {
			var tv taintVal
			if isSourceObject(env.st.mod, fld) {
				tv = tv.union(taintVal{srcs: []taintSrc{{pos: v.Sel.Pos(), name: fld.Name()}}})
			}
			if why, ok := env.st.taintedFields[fld]; ok {
				tv = tv.union(taintVal{srcs: []taintSrc{{pos: v.Sel.Pos(), name: fld.Name() + " (holds " + why + ")"}}})
			}
			// Selector chains: x.a.b where x.a is a tainted local.
			tv = tv.union(env.taintOf(v.X))
			return tv
		}
		return taintVal{}
	case *ast.CallExpr:
		return env.callResultTaint(v, 0)
	case *ast.BinaryExpr:
		return env.taintOf(v.X).union(env.taintOf(v.Y))
	case *ast.UnaryExpr:
		return env.taintOf(v.X)
	case *ast.StarExpr:
		return env.taintOf(v.X)
	case *ast.IndexExpr:
		return env.taintOf(v.X)
	case *ast.SliceExpr:
		return env.taintOf(v.X)
	case *ast.CompositeLit:
		var tv taintVal
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			tv = tv.union(env.taintOf(el))
		}
		return tv
	case *ast.TypeAssertExpr:
		return env.taintOf(v.X)
	}
	return taintVal{}
}

// callResultTaint evaluates the taint of result j of a call.
func (env *fnEnv) callResultTaint(call *ast.CallExpr, j int) taintVal {
	// Type conversion: string(key), []byte(key), KeyType(key).
	if tv, ok := env.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return env.taintOf(call.Args[0])
	}
	// Builtins are *types.Builtin, invisible to calleeFunc: append (and
	// friends that reshape slices) carries its arguments' taint.
	if name, ok := builtinName(env.pkg, call); ok {
		switch name {
		case "append", "min", "max":
			var tv taintVal
			for _, a := range call.Args {
				tv = tv.union(env.taintOf(a))
			}
			return tv
		}
		return taintVal{}
	}
	callee := calleeFunc(env.pkg, call)
	if callee == nil {
		// Calls through function-typed variables are not modelled.
		return taintVal{}
	}
	if isSanitizer(env.st.mod, callee) {
		return taintVal{}
	}
	if prop, ok := intrinsicPropagator(callee); ok {
		var tv taintVal
		for _, ai := range prop.args(len(call.Args)) {
			tv = tv.union(env.taintOf(call.Args[ai]))
		}
		return tv
	}
	sum := env.st.summaries[callee]
	if sum == nil {
		return taintVal{}
	}
	var out taintVal
	if desc, ok := sum.taintedRes[j]; ok {
		out = out.union(taintVal{srcs: []taintSrc{{pos: call.Pos(), name: desc + " via " + callee.Name() + "()"}}})
	}
	if bits := sum.flows[j]; bits != 0 {
		for i := -1; i < len(call.Args); i++ {
			if bits&paramBit(i) == 0 {
				continue
			}
			var argT taintVal
			if i == -1 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					argT = env.taintOf(sel.X)
				}
			} else if i < len(call.Args) {
				argT = env.taintOf(call.Args[i])
			}
			out = out.union(argT)
		}
		// Variadic callee: bits beyond the last declared param cover
		// every trailing argument (paramBit of the variadic slot).
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Variadic() {
			last := sig.Params().Len() - 1
			if bits&paramBit(last) != 0 {
				for ai := last; ai < len(call.Args); ai++ {
					out = out.union(env.taintOf(call.Args[ai]))
				}
			}
		}
	}
	return out
}

// checkCall handles sink detection and copy()-style statement
// propagation at every call site.
func (env *fnEnv) checkCall(call *ast.CallExpr) {
	// copy(dst, src): taint flows into dst.
	if name, ok := builtinName(env.pkg, call); ok {
		if name == "copy" && len(call.Args) == 2 {
			env.assignOne(call.Args[0], env.taintOf(call.Args[1]))
		}
		return
	}
	callee := calleeFunc(env.pkg, call)
	if callee == nil {
		return
	}
	if isSanitizer(env.st.mod, callee) {
		return
	}

	// Known sink (fmt/log/obs-tag/store-upload)?
	if sink, ok := sinkSpecFor(env.st.mod, callee); ok {
		for _, ai := range sink.args(len(call.Args)) {
			env.flagTainted(call, call.Args[ai], sink.desc, sinkChain{desc: sink.desc, pos: call.Pos()})
		}
		return
	}

	// Module callee whose summary routes a param to a sink.
	sum := env.st.summaries[callee]
	if sum == nil {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	for i, chain := range sum.sinkParams {
		desc := callee.Name() + " → " + chain.desc
		if i == -1 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				env.flagTainted(call, sel.X, desc, sinkChain{desc: desc, pos: call.Pos()})
			}
			continue
		}
		if sig != nil && sig.Variadic() && i == sig.Params().Len()-1 {
			for ai := i; ai < len(call.Args); ai++ {
				env.flagTainted(call, call.Args[ai], desc, sinkChain{desc: desc, pos: call.Pos()})
			}
			continue
		}
		if i < len(call.Args) {
			env.flagTainted(call, call.Args[i], desc, sinkChain{desc: desc, pos: call.Pos()})
		}
	}
}

// flagTainted reports arg's taint against a sink: locally rooted taint
// becomes a finding at this call; param-rooted taint becomes a summary
// entry so the caller reports at its own site.
func (env *fnEnv) flagTainted(call *ast.CallExpr, arg ast.Expr, sinkDesc string, chain sinkChain) {
	tv := env.taintOf(arg)
	if tv.zero() {
		return
	}
	if tv.params != 0 {
		for i := -1; i < maxTrackedParams-1; i++ {
			if tv.params&paramBit(i) != 0 {
				if _, ok := env.sum.sinkParams[i]; !ok {
					env.sum.sinkParams[i] = chain
					env.changed = true
				}
			}
		}
	}
	if len(tv.srcs) > 0 && env.findings != nil && !env.reported[call.Pos()] {
		env.reported[call.Pos()] = true
		src := tv.srcs[0]
		*env.findings = append(*env.findings, Finding{
			Pos:  env.pkg.Fset.Position(call.Pos()),
			Rule: RuleTaint,
			Msg: "key material '" + src.name + "' flows into " + sinkDesc +
				" in " + env.node.Name + "; route it through a seal/wrap sanitizer or drop it",
		})
	}
}

// isSourceObject reports whether an object's name or type marks it as
// raw key material, honoring the per-package extensions in
// taintExtraSources.
func isSourceObject(m *Module, obj types.Object) bool {
	if obj == nil {
		return false
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
	default:
		return false
	}
	// Key material is bytes. A numeric or boolean object whose name
	// merely mentions a key — RootKeySize, wrapKeyLen, hasRootKey — is
	// a property *about* a key, safe to format into errors and logs.
	if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 {
		return false
	}
	if keyMaterialName(obj.Name()) || keyMaterialType(obj.Type()) {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	rel := strings.TrimPrefix(obj.Pkg().Path(), m.Path+"/")
	lower := strings.ToLower(obj.Name())
	for _, pat := range taintExtraSources[rel] {
		if strings.Contains(lower, pat) {
			return true
		}
	}
	return false
}

// propagator describes an external function whose result carries its
// arguments' taint.
type propagator struct {
	args func(n int) []int
}

func allArgs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// intrinsicPropagator returns the propagation shape of well-known
// stdlib helpers.
func intrinsicPropagator(fn *types.Func) (propagator, bool) {
	if fn.Pkg() == nil {
		return propagator{}, false // builtins are handled by callResultTaint
	}
	key := fn.Pkg().Path() + "." + fn.Name()
	switch key {
	case "encoding/hex.EncodeToString", "encoding/hex.Dump",
		"encoding/base64.StdEncoding.EncodeToString", // not reachable as pkg func; kept for clarity
		"bytes.Clone", "bytes.Join", "bytes.TrimSpace", "bytes.ToLower", "bytes.ToUpper",
		"strings.Join", "strings.ToLower", "strings.ToUpper", "strings.TrimSpace":
		return propagator{args: allArgs}, true
	}
	if fn.Pkg().Path() == "encoding/base64" && strings.HasPrefix(fn.Name(), "Encode") {
		return propagator{args: allArgs}, true
	}
	return propagator{}, false
}
