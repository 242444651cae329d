package lint

// boundedinput: the wire/snapshot decode discipline, checked over the
// CFG with dominance. A decoder that trusts a length prefix it just read
// can be forced to allocate (or loop-append) arbitrarily by one lying
// frame — the classic remote-amplification bug. The repository's
// decoders all guard first (`length > maxFrame`, `count > MaxMGetKeys`,
// `n > MaxRecordBytes`, `length > maxWALRecordBytes`) and allocate second;
// this analyzer makes that ordering mechanical.
//
// Inside a //repro:boundedinput function:
//
//   - every `make` whose size is not a constant and not derived from
//     len/cap of existing memory must be *dominated* by a comparison
//     that mentions one of the size expression's variables — and the
//     condition of a for-loop enclosing the allocation does not count
//     (`for i < count` bounds the trip count with the same lying value;
//     it is not a check against a declared limit);
//   - every single-element `append` inside a counted for-loop (a `for`
//     with a condition) must likewise be dominated by a comparison,
//     outside the loop's own condition, over one of the loop-condition's
//     variables — the `count > MaxMGetKeys`-before-the-loop shape;
//   - spread appends (`append(buf, make(...)...)`) are covered by the
//     checks on their source, and `min`/`max`-clamped sizes pass as
//     already bounded.
//
// The analyzer is deliberately per-function and syntactic about what a
// "bound" is: any dominating comparison over the right variable counts.
// The invariant that the bound is the *declared* one (MaxFrame, section
// caps) stays with the constants' tests; what cannot regress silently is
// the check-before-allocate ordering.

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/cfg"
)

// BoundedInput is the boundedinput analyzer.
var BoundedInput = &Analyzer{
	Name: "boundedinput",
	Doc:  "//repro:boundedinput decoders allocate from decoded sizes only under a dominating bound check",
	Run:  runBoundedInput,
}

func runBoundedInput(p *Pass) error {
	dirs := p.Directives()
	for _, fd := range sortedDecls(funcDecls(p)) {
		if !dirs.FuncHas(fd, DirBoundedIn) || fd.Body == nil {
			continue
		}
		checkBoundedFunc(p, fd)
	}
	return nil
}

func checkBoundedFunc(p *Pass, fd *ast.FuncDecl) {
	g := p.CFG(fd)
	if g == nil {
		return
	}
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch builtinName(p.TypesInfo, call) {
		case "make":
			// make(T, len[, cap]): every non-constant size expression
			// needs a dominating bound.
			for _, size := range call.Args[1:] {
				checkSizeExpr(p, g, fd, call, size)
			}
		case "append":
			checkAppend(p, g, fd, call)
		}
	})
}

// checkSizeExpr requires a dominating comparison over one of the size
// expression's variables, unless the size is constant, memory-derived
// (len/cap), or min/max-clamped.
func checkSizeExpr(p *Pass, g *cfg.Graph, fd *ast.FuncDecl, site *ast.CallExpr, size ast.Expr) {
	if tv, ok := p.TypesInfo.Types[size]; ok && tv.Value != nil {
		return // constant
	}
	if clamped(p, size) {
		return // min(n, chunk) and friends carry their own bound
	}
	roots := rootVars(p, size)
	if len(roots) == 0 {
		return // len/cap-derived or otherwise memory-backed
	}
	if !boundDominates(p, g, fd, site, roots) {
		p.Reportf(site.Pos(), "make sized by %s in //repro:boundedinput %s has no dominating bound check — a lying length prefix forces this allocation", types.ExprString(size), fd.Name.Name)
	}
}

// checkAppend flags single-element appends inside counted loops whose
// trip variables were never compared against a bound outside the loop's
// own condition.
func checkAppend(p *Pass, g *cfg.Graph, fd *ast.FuncDecl, call *ast.CallExpr) {
	if call.Ellipsis != token.NoPos {
		return // append(dst, src...): growth bounded by src, checked at its make
	}
	loop := enclosingCondFor(p, call)
	if loop == nil {
		return // not in a counted loop: growth is O(1) per call
	}
	roots := rootVars(p, loop.Cond)
	if len(roots) == 0 {
		return
	}
	if !boundDominates(p, g, fd, call, roots) {
		p.Reportf(call.Pos(), "append inside `for %s` in //repro:boundedinput %s grows by a decoded count with no dominating bound check", types.ExprString(loop.Cond), fd.Name.Name)
	}
}

// enclosingCondFor returns the innermost for-loop with a condition that
// encloses n, or nil.
func enclosingCondFor(p *Pass, n ast.Node) *ast.ForStmt {
	for cur := ast.Node(n); cur != nil; cur = p.Parent(cur) {
		if fs, ok := cur.(*ast.ForStmt); ok && fs.Cond != nil && fs.Body.Pos() <= n.Pos() && n.Pos() < fs.Body.End() {
			return fs
		}
		if _, ok := cur.(*ast.FuncDecl); ok {
			return nil
		}
	}
	return nil
}

// boundDominates reports whether some comparison over one of roots
// covers the allocation site — excluding conditions of for-loops that
// enclose the site (their trip test is made of the same tainted value).
func boundDominates(p *Pass, g *cfg.Graph, fd *ast.FuncDecl, site ast.Node, roots map[types.Object]bool) bool {
	_ = fd
	for _, b := range g.Blocks {
		cond := b.Cond
		if cond == nil {
			continue
		}
		if fs, ok := p.Parent(cond).(*ast.ForStmt); ok && fs.Cond == cond &&
			fs.Body.Pos() <= site.Pos() && site.Pos() < fs.Body.End() {
			continue // the enclosing loop's own condition is not a bound
		}
		if !comparisonOver(p, cond, roots) {
			continue
		}
		if g.Covers(cond, site) {
			return true
		}
	}
	return false
}

// comparisonOver reports whether the condition contains an ordering
// comparison (< <= > >=) with an operand mentioning one of roots.
func comparisonOver(p *Pass, cond ast.Expr, roots map[types.Object]bool) bool {
	found := false
	inspectNoFuncLit(cond, func(d ast.Node) {
		be, ok := d.(*ast.BinaryExpr)
		if !ok || found {
			return
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if mentionsRoot(p, be.X, roots) || mentionsRoot(p, be.Y, roots) {
				found = true
			}
		}
	})
	return found
}

func mentionsRoot(p *Pass, e ast.Expr, roots map[types.Object]bool) bool {
	found := false
	inspectNoFuncLit(e, func(d ast.Node) {
		if id, ok := d.(*ast.Ident); ok {
			if obj := p.TypesInfo.Uses[id]; obj != nil && roots[obj] {
				found = true
			}
		}
	})
	return found
}

// rootVars collects the variable objects a size expression is derived
// from: constants drop out, and len/cap subexpressions are treated as
// memory-backed (the bytes already exist, so the size cannot lie).
func rootVars(p *Pass, e ast.Expr) map[types.Object]bool {
	roots := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch builtinName(p.TypesInfo, n) {
			case "len", "cap":
				return false // sized by memory that exists
			}
		case *ast.Ident:
			obj := p.TypesInfo.Uses[n]
			if obj == nil {
				obj = p.TypesInfo.Defs[n]
			}
			if v, ok := obj.(*types.Var); ok {
				roots[v] = true
			}
		}
		return true
	})
	return roots
}

// clamped reports whether the size expression is a min/max builtin call
// — an inline clamp that carries its own bound.
func clamped(p *Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch builtinName(p.TypesInfo, call) {
	case "min", "max":
		return true
	}
	return false
}
