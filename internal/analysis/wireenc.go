package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Wireenc forbids hand-rolled wire byte layout outside internal/wire.
//
// The rule: every MicroPacket frame layout lives in
// repro/internal/wire, keyed by one switch on the format version,
// precisely so that
// no second copy of "which byte means what" can drift from the golden
// vectors. A multi-byte field composed by indexing and shifting a
// byte buffer — `uint32(b[4])<<8 | uint32(b[3])` or
// `b[5] = byte(x >> 8)` — is such a second copy: it re-encodes layout
// knowledge (offset, width, endianness) at the call site, where a
// format-version bump cannot reach it. Outside internal/wire, frame
// bytes go through wire.Encode/Decode and payload fields through
// encoding/binary against the layout comment of the owning package
// (how internal/rostering and internal/ampdc do it).
//
// The rule flags any expression tree that combines an index into
// a byte slice or byte array with a shift, and any assignment into a
// byte-slice element whose value involves a shift. Single-byte reads
// and writes (flags, tags, masks of one byte) are untouched.
var Wireenc = &Rule{
	Name:   "wireenc",
	Except: []string{"wire"}, // internal/wire owns frame layout
	Run:    runWireenc,
}

func runWireenc(pass *Pass) {
	for _, file := range pass.Files {
		var reported []ast.Node
		covered := func(n ast.Node) bool {
			for _, r := range reported {
				if r.Pos() <= n.Pos() && n.End() <= r.End() {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// b[i] = byte(x >> 8): writing one byte of a wider value.
				for i, lhs := range n.Lhs {
					if !isByteElemIndex(pass, lhs) {
						continue
					}
					if i < len(n.Rhs) && containsShift(n.Rhs[i]) && !covered(n) {
						reported = append(reported, n)
						reportWireenc(pass, n.Pos())
					}
				}
			case *ast.BinaryExpr:
				// uint32(b[4])<<8 | uint32(b[3]): reading a wider value
				// out of bytes. Flag the outermost tree that mixes a
				// shift with a byte-element load.
				if covered(n) {
					return false
				}
				if containsShift(n) && containsByteElemIndex(pass, n) {
					reported = append(reported, n)
					reportWireenc(pass, n.Pos())
					return false
				}
			}
			return true
		})
	}
}

func reportWireenc(pass *Pass, pos token.Pos) {
	pass.Reportf(pos,
		"hand-rolled wire byte layout (index+shift on a byte buffer): layout knowledge outside "+
			"internal/wire drifts from the versioned codecs and their golden vectors; use "+
			"wire.Encode/Decode, the owning package's accessors, or encoding/binary over a "+
			"documented layout")
}

// isByteElemIndex reports whether e indexes an element of a []byte or
// [N]byte (directly or through a named type).
func isByteElemIndex(pass *Pass, e ast.Expr) bool {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[idx.X]
	if !ok {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	case *types.Pointer: // *[N]byte auto-indexes
		if a, ok := t.Elem().Underlying().(*types.Array); ok {
			elem = a.Elem()
		}
	}
	if elem == nil {
		return false
	}
	b, ok := elem.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// containsShift reports whether the expression tree uses << or >> to
// build a value. Shifts inside an index position (`tbl[x>>4]`) select
// an element rather than pack bytes, so they do not count.
func containsShift(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.SHL || e.Op == token.SHR {
			return true
		}
		return containsShift(e.X) || containsShift(e.Y)
	case *ast.UnaryExpr:
		return containsShift(e.X)
	case *ast.CallExpr: // conversions and calls: scan arguments
		for _, a := range e.Args {
			if containsShift(a) {
				return true
			}
		}
	case *ast.IndexExpr:
		return containsShift(e.X) // skip e.Index: element selection
	case *ast.SliceExpr:
		return containsShift(e.X) // skip bounds: they select, not pack
	case *ast.StarExpr:
		return containsShift(e.X)
	case *ast.SelectorExpr:
		return containsShift(e.X)
	}
	return false
}

// containsByteElemIndex reports whether the tree loads a byte element.
func containsByteElemIndex(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ex, ok := n.(ast.Expr); ok && isByteElemIndex(pass, ex) {
			found = true
			return false
		}
		return !found
	})
	return found
}
