package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Framesink guards the frame ledger's closed-sink property: in the
// frame-handling packages (phys, insertion, rostering) a function
// holding a Frame must not return without deciding the frame's fate.
//
// The rule exists because the conservation invariant
// (internal/frameacct) is only as strong as the weakest death site: a
// single `return` that silently drops a frame shows up as a residual
// gauge that never drains, and the invariant can name the imbalance
// but not the line. This rule names the line. A void function (or
// closure) that binds a Frame — as a parameter or a := binding — must,
// on the path to every `return`, either
//
//   - account the frame on the ledger (any call on a frameacct.Acct:
//     Lose, LoseN, Consume, Deliver, ClearFifo, ...), or
//   - hand the frame off (pass a Frame-typed value to any call — Send,
//     a handler, a pooled record constructor, append — store it into a
//     field or slice, or send it on a channel).
//
// Value-returning functions are exempt: predicates and codecs
// (floodAdmit, deepPath) read frames whose fate belongs to the caller.
// The analysis is path-insensitive by design — handling anywhere
// before the return, including inside an earlier branch, counts — so
// it errs toward false negatives, never toward noise. Waive a
// legitimately unaccounted return (a frame owned elsewhere) with
// `//ampvet:allow framesink <reason>`.
var Framesink = &Rule{
	Name: "framesink",
	Only: []string{"phys", "insertion", "rostering"},
	Run:  runFramesink,
}

func runFramesink(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Type, fn.Body)
			}
			return true
		})
	}
}

// checkFunc scans one void function (value-returning functions read
// frames on the caller's behalf and are exempt).
func checkFunc(pass *Pass, typ *ast.FuncType, body *ast.BlockStmt) {
	if typ.Results != nil && len(typ.Results.List) > 0 {
		return
	}
	live := false
	if typ.Params != nil {
		for _, fld := range typ.Params.List {
			if len(fld.Names) > 0 && isFrame(pass.TypesInfo.Types[fld.Type].Type) {
				live = true
			}
		}
	}
	scan(pass, body.List, live, false)
}

// scan walks a statement list in order, tracking whether a frame is
// bound (live) and whether its fate has been decided on this path
// (handled). Nested function literals are skipped — each is checked as
// its own function — but a literal passed in a call still counts as a
// handoff for the enclosing scope when it captures the frame.
func scan(pass *Pass, stmts []ast.Stmt, live, handled bool) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.ReturnStmt:
			if live && !handled {
				pass.Reportf(s.Pos(),
					"uncounted frame sink: this return drops a frame with no frameacct call and no "+
						"handoff on the path; count the death (Acct.Lose with its cause) or hand the "+
						"frame off, or waive an externally-owned frame with //ampvet:allow framesink")
			}
		case *ast.IfStmt:
			branchHandled := handled || stmtHandles(pass, s.Init) || exprHandles(pass, s.Cond)
			scan(pass, s.Body.List, live, branchHandled)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				scan(pass, e.List, live, branchHandled)
			case *ast.IfStmt:
				scan(pass, []ast.Stmt{e}, live, branchHandled)
			}
		case *ast.SwitchStmt:
			branchHandled := handled || stmtHandles(pass, s.Init) || exprHandles(pass, s.Tag)
			for _, c := range s.Body.List {
				scan(pass, c.(*ast.CaseClause).Body, live, branchHandled)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				scan(pass, c.(*ast.CaseClause).Body, live, handled)
			}
		case *ast.ForStmt:
			scan(pass, s.Body.List, live, handled || exprHandles(pass, s.Cond))
		case *ast.RangeStmt:
			scan(pass, s.Body.List, live, handled)
		case *ast.BlockStmt:
			scan(pass, s.List, live, handled)
		case *ast.LabeledStmt:
			scan(pass, []ast.Stmt{s.Stmt}, live, handled)
		}
		if bindsFrame(pass, st) {
			// A fresh frame binding needs its own disposition.
			live, handled = true, false
		}
		if stmtHandles(pass, st) {
			handled = true
		}
	}
}

// bindsFrame reports whether st introduces a Frame-typed variable (a
// := define or a var declaration).
func bindsFrame(pass *Pass, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.DEFINE {
			return false
		}
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.Defs[id]; obj != nil && isFrame(obj.Type()) {
					return true
				}
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil && isFrame(obj.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// stmtHandles reports whether any expression in st decides a frame's
// fate (see exprHandles).
func stmtHandles(pass *Pass, st ast.Stmt) bool {
	if st == nil {
		return false
	}
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callHandles(pass, n) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			if storeHandles(pass, n) {
				found = true
				return false
			}
		case *ast.SendStmt:
			if isFrame(pass.TypesInfo.Types[n.Value].Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprHandles is stmtHandles over a bare expression (an if condition,
// a switch tag).
func exprHandles(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	return stmtHandles(pass, &ast.ExprStmt{X: e})
}

// callHandles reports whether the call accounts a frame (any method on
// a frameacct.Acct) or hands one off (a Frame-typed argument).
func callHandles(pass *Pass, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isAcct(tv.Type) {
			return true
		}
	}
	for _, arg := range call.Args {
		if isFrame(pass.TypesInfo.Types[arg].Type) {
			return true
		}
	}
	return false
}

// storeHandles reports whether the assignment writes a Frame-typed
// value into a field or element — parking the frame somewhere that
// outlives the function (a FIFO slot, a pooled record).
func storeHandles(pass *Pass, as *ast.AssignStmt) bool {
	for i, lhs := range as.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue
		}
		if i < len(as.Rhs) {
			if isFrame(pass.TypesInfo.Types[as.Rhs[i]].Type) {
				return true
			}
		} else if len(as.Rhs) == 1 {
			if isFrame(pass.TypesInfo.Types[as.Rhs[0]].Type) {
				return true
			}
		}
	}
	return false
}

// isFrame reports whether t is the named type Frame (or *Frame) of a
// frame-handling package.
func isFrame(t types.Type) bool { return isNamed(t, "Frame") }

// isAcct reports whether t is the frame ledger type Acct (or *Acct).
func isAcct(t types.Type) bool { return isNamed(t, "Acct") }

func isNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}
