package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/detmap"
)

// Shardshare forbids shard-goroutine writes to coordinator state in the
// engine.
//
// The rule: parsim's determinism contract (DESIGN.md, "determinism
// under parallelism") is that between barriers a shard goroutine may
// mutate only its own kernel's world; everything shared — engine
// counters, the action queue, fabric state — is written single-
// threaded at barriers or through the sanctioned capture paths
// (RemoteExchange's RemoteFrame, Engine.DeferRoute), which append to
// per-shard queues the coordinator drains in canonical order. A
// direct write to shared state from shard context is at best a data
// race the -race batteries may or may not catch on a sampled seed,
// and at worst a deterministic-looking heisenbug whose effect order
// depends on the host scheduler, breaking Report equality across shard
// counts.
//
// The rule covers repro/internal/parsim: the barrier engine and, in
// the same package, the shard goroutines and capture queues it hosts.
//
// Shard context is computed statically: every function launched by a
// `go` statement in the package, every method of a type that
// implements the RemoteExchange capture surface (a RemoteFrame
// method), and everything those functions call within the package.
// Within shard context the rule flags assignments and ++/--
// through a field selector (state reached via a receiver, parameter
// or captured pointer), unless the path is rooted at a function-local
// non-pointer variable. Channel operations are communication, not
// shared-state writes, and stay legal.
var Shardshare = &Rule{
	Name: "shardshare",
	Only: []string{"parsim"},
	Run:  runShardshare,
}

// sanctioned names the capture APIs that are allowed to append into
// per-shard queues from shard context; the coordinator drains them at
// barriers in canonical order.
func sanctioned(name string) bool {
	return name == "RemoteFrame" || name == "DeferRoute"
}

// byPos orders functions by declaration position, the order every walk
// over the shard-context set takes.
func byPos(a, b *types.Func) bool { return a.Pos() < b.Pos() }

func runShardshare(pass *Pass) {
	// Map every declared function object to its declaration.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	shard := map[*types.Func]bool{} // shard-context functions
	var litRoots []*ast.FuncLit     // go func(){...} bodies: shard context directly

	// Roots 1: methods of any type implementing the capture surface.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		captures := false
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "RemoteFrame" {
				captures = true
				break
			}
		}
		if !captures {
			continue
		}
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok {
				shard[fn] = true
			}
		}
	}

	// Roots 2: callees of go statements anywhere in the package.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				litRoots = append(litRoots, fun)
			default:
				if fn := calleeFunc(pass, g.Call); fn != nil {
					shard[fn] = true
				}
			}
			return true
		})
	}

	// Propagate through same-package static calls to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, fn := range detmap.SortedKeysFunc(shard, byPos) {
			fd := decls[fn]
			if fd == nil || fd.Body == nil {
				continue
			}
			for _, callee := range calleesOf(pass, fd.Body) {
				if _, ok := decls[callee]; ok && !shard[callee] {
					shard[callee] = true
					changed = true
				}
			}
		}
	}

	for _, fn := range detmap.SortedKeysFunc(shard, byPos) {
		if sanctioned(fn.Name()) {
			continue
		}
		if fd := decls[fn]; fd != nil && fd.Body != nil {
			checkWrites(pass, fd.Body)
		}
	}
	for _, lit := range litRoots {
		checkWrites(pass, lit.Body)
	}
}

// calleeFunc resolves a call's target to a function object declared
// in this package, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// calleesOf lists the same-package functions a body statically calls.
func calleesOf(pass *Pass, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass, call); fn != nil {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// checkWrites flags shared-state writes in one shard-context body.
func checkWrites(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isSharedWrite(pass, lhs, body) {
					reportShardshare(pass, lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if isSharedWrite(pass, n.X, body) {
				reportShardshare(pass, n.X.Pos())
			}
		}
		return true
	})
}

func reportShardshare(pass *Pass, pos token.Pos) {
	pass.Reportf(pos,
		"write to shared coordinator state from a shard goroutine: between barriers a shard may "+
			"mutate only its own kernel's world; route cross-shard effects through the "+
			"RemoteExchange capture (RemoteFrame/DeferRoute) or a coordinator action "+
			"(Engine.Schedule), which run with all shards parked")
}

// isSharedWrite reports whether the write target reaches state beyond
// the function's own locals: any path through a field selector whose
// root is not a local non-pointer variable declared inside body.
func isSharedWrite(pass *Pass, lhs ast.Expr, body *ast.BlockStmt) bool {
	hasSelector := false
	e := ast.Unparen(lhs)
loop:
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			// Only field selections count; a package-qualified name
			// (pkg.Var) is handled by the Ident case after types say so.
			if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				hasSelector = true
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			// Writing through an explicit dereference: the pointee is
			// shared unless the pointer is provably local, which we
			// cannot know — treat as shared.
			hasSelector = true
			e = ast.Unparen(x.X)
		default:
			break loop
		}
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return hasSelector
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return hasSelector
	}
	// Package-level variable: shared no matter how it is written.
	if v.Parent() == pass.Pkg.Scope() {
		return true
	}
	if !hasSelector {
		return false // x = ..., x[i] = ... on a local: stays local
	}
	// A field write v.f = ...: legal only when v is a non-pointer
	// variable declared inside this function body (a genuinely private
	// struct); receivers, parameters and pointer locals alias state
	// that outlives the window.
	if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
		return true
	}
	return body == nil || v.Pos() < body.Pos() || v.Pos() > body.End()
}
