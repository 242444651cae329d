package lint

// fsyncorder: the durability-ordering protocol, checked path-sensitively
// over the control-flow graph. PR 8 fixed two ordering bugs this suite's
// lexical analyzers could not express: WAL.Sync un-sticking an earlier
// fsync failure before returning success, and Checkpoint leaving
// snapshot.tmp behind when the publishing rename failed. Both were
// error-PATH bugs — the operations were right, the order of stores and
// returns on the failure path was wrong — and this analyzer re-catches
// both shapes mechanically (pinned in testdata/fsyncorder/flagged).
//
// The contract, per //repro:poisons-annotated function:
//
//   - On every path where a //repro:durable operation (an annotated
//     walFile method, or os.Rename / (*os.File).Sync / (*os.File).Truncate)
//     returns a non-nil error, a poison action must run before that
//     error can reach a return: a store to a declared sticky-error
//     field, a branch that consults one (the already-poisoned check),
//     or a call of a declared cleanup target (e.g. os.Remove).
//   - A durable operation's error may not be discarded or returned
//     straight through — both skip the poison entirely.
//   - A success acknowledgement (a literal nil in the error result)
//     must be dominated by a durable operation or a poison-target
//     consultation: acking without ever having synced (or checked the
//     sticky error) is how un-durable writes get acknowledged.
//
// Paths are pruned where the error is proven nil (err == nil / err !=
// nil conditions, including as the first operand of && and ||), so the
// group-commit shapes — where the poison store sits under `if err !=
// nil` and a shared `return err` follows the join — verify precisely.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/cfg"
)

// FsyncOrder is the fsyncorder analyzer.
var FsyncOrder = &Analyzer{
	Name: "fsyncorder",
	Doc:  "//repro:durable operation errors are poisoned before any return; acks are dominated by a durable op",
	Run:  runFsyncOrder,
}

// poisonTargets is a parsed //repro:poisons argument list. A bare token
// names a sticky field (matched on stores and condition reads) or a
// callee (matched by function name); a dotted token like os.Remove
// names a cleanup function qualified by package or receiver type.
type poisonTargets struct {
	names []string // bare tokens: field or callee names
	calls [][2]string
}

func parsePoisonTargets(args string) poisonTargets {
	var t poisonTargets
	for _, tok := range strings.Fields(args) {
		if qual, name, ok := strings.Cut(tok, "."); ok {
			t.calls = append(t.calls, [2]string{qual, name})
		} else {
			t.names = append(t.names, tok)
		}
	}
	return t
}

func runFsyncOrder(p *Pass) error {
	dirs := p.Directives()
	decls := funcDecls(p)
	durables := durableOps(p)
	for _, fd := range sortedDecls(decls) {
		dir, ok := dirs.Func(fd, DirPoisons)
		if !ok || fd.Body == nil {
			continue
		}
		targets := parsePoisonTargets(dir.Args)
		if len(targets.names) == 0 && len(targets.calls) == 0 {
			p.Reportf(dir.Pos, "//repro:poisons needs targets: the sticky-error fields or cleanup calls that absorb a failed durable op in %s", fd.Name.Name)
			continue
		}
		checkFsyncFunc(p, fd, targets, durables, decls)
	}
	return nil
}

// durableOps collects the //repro:durable operations visible in this
// package: annotated function/method declarations and annotated
// interface methods (the walFile seam), plus the built-in os durability
// entry points matched in isDurableCall.
func durableOps(p *Pass) map[*types.Func]bool {
	dirs := p.Directives()
	ops := make(map[*types.Func]bool)
	for fn, fd := range p.FuncDecls() {
		if dirs.FuncHas(fd, DirDurable) {
			ops[fn] = true
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok || it.Methods == nil {
					continue
				}
				for _, field := range it.Methods.List {
					if !dirs.FieldHas(field, DirDurable) {
						continue
					}
					for _, name := range field.Names {
						if fn, ok := p.TypesInfo.Defs[name].(*types.Func); ok {
							ops[fn] = true
						}
					}
				}
			}
		}
	}
	return ops
}

// isDurableCall reports whether the call is a //repro:durable operation:
// an annotated declaration or interface method, or one of the built-in
// os durability points (Rename, and the File Sync/Truncate methods).
func isDurableCall(p *Pass, call *ast.CallExpr, durables map[*types.Func]bool) bool {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return false
	}
	if durables[fn.Origin()] {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "os" {
		switch fn.Name() {
		case "Rename", "Sync", "Truncate":
			return true
		}
	}
	return false
}

func durableCallName(p *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(p.TypesInfo, call); fn != nil {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if x, ok := unparen(sel.X).(*ast.Ident); ok {
				return x.Name + "." + fn.Name()
			}
			return fn.Name()
		}
		return fn.Name()
	}
	return "durable op"
}

func checkFsyncFunc(p *Pass, fd *ast.FuncDecl, targets poisonTargets, durables map[*types.Func]bool, decls map[*types.Func]*ast.FuncDecl) {
	g := p.CFG(fd)
	if g == nil {
		return
	}

	// Pass 1: every durable call's error must be captured, then poisoned
	// on each path where it remains non-nil before reaching a return.
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isDurableCall(p, call, durables) {
			return
		}
		name := durableCallName(p, call)
		parent := p.Parent(call)
		for {
			if pe, ok := parent.(*ast.ParenExpr); ok {
				parent = p.Parent(pe)
				continue
			}
			break
		}
		switch pa := parent.(type) {
		case *ast.AssignStmt:
			if len(pa.Rhs) != 1 || unparen(pa.Rhs[0]) != call {
				p.Reportf(call.Pos(), "error of //repro:durable %s is not captured into a dedicated variable — it cannot be poisoned (%s)", name, fd.Name.Name)
				return
			}
			errObj := errorLHS(p, pa)
			if errObj == nil {
				p.Reportf(call.Pos(), "error of //repro:durable %s is discarded — a failed durability op must poison (%s)", name, fd.Name.Name)
				return
			}
			traceErrorPaths(p, g, pa, errObj, targets, decls, name)
		case *ast.ReturnStmt:
			p.Reportf(call.Pos(), "error of //repro:durable %s is returned directly — no //repro:poisons action (%s) can run on its failure path", name, strings.Join(append(targets.names, flatten(targets.calls)...), ", "))
		case *ast.ExprStmt:
			p.Reportf(call.Pos(), "error of //repro:durable %s is discarded — a failed durability op must poison (%s)", name, fd.Name.Name)
		default:
			p.Reportf(call.Pos(), "error of //repro:durable %s is consumed inline — capture it so a //repro:poisons action can run on failure (%s)", name, fd.Name.Name)
		}
	})

	// Pass 2: success acks. A literal nil in the error result slot must
	// be dominated by a durable op or a poison-target consultation.
	sig, _ := p.TypesInfo.Defs[fd.Name].(*types.Func)
	if sig == nil {
		return
	}
	res := sig.Signature().Results()
	errIdx := -1
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			errIdx = i
		}
	}
	if errIdx < 0 {
		return
	}
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != res.Len() {
			return
		}
		expr := ret.Results[errIdx]
		if tv, ok := p.TypesInfo.Types[expr]; !ok || !tv.IsNil() {
			return
		}
		if !ackDominated(p, g, ret, targets, durables, decls) {
			p.Reportf(ret.Pos(), "success ack (nil error) in //repro:poisons %s is not dominated by a //repro:durable op or a check of its poison targets (%s)", fd.Name.Name, strings.Join(append(targets.names, flatten(targets.calls)...), ", "))
		}
	})
}

func flatten(calls [][2]string) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = c[0] + "." + c[1]
	}
	return out
}

// errorLHS returns the object of the error-typed variable a durable
// call's result is assigned to, or nil when it lands in the blank
// identifier (or no error-typed LHS exists).
func errorLHS(p *Pass, as *ast.AssignStmt) types.Object {
	var last types.Object
	for _, lhs := range as.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.TypesInfo.Defs[id]
		if obj == nil {
			obj = p.TypesInfo.Uses[id]
		}
		if obj != nil && isErrorType(obj.Type()) {
			last = obj
		}
	}
	return last
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// traceErrorPaths walks the CFG forward from the capturing assignment,
// pruning edges where the error is proven nil and stopping at poison
// actions; any reachable return that mentions the error is a finding.
func traceErrorPaths(p *Pass, g *cfg.Graph, site *ast.AssignStmt, errObj types.Object, targets poisonTargets, decls map[*types.Func]*ast.FuncDecl, name string) {
	blk, idx := g.BlockOf(site)
	if blk == nil {
		return
	}
	type item struct {
		blk   *cfg.Block
		start int
	}
	visited := map[*cfg.Block]bool{}
	work := []item{{blk, idx + 1}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		stopped := false
		for i := it.start; i < len(it.blk.Nodes); i++ {
			n := it.blk.Nodes[i]
			if isPoisonAction(p, n, targets, decls) {
				stopped = true
				break
			}
			if reassignsObj(p, n, errObj) {
				stopped = true // the variable no longer carries this op's error
				break
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				if refsObj(p, ret, errObj) {
					p.Reportf(ret.Pos(), "error from //repro:durable %s can reach this return with no //repro:poisons action (%s) on the path", name, strings.Join(append(targets.names, flatten(targets.calls)...), ", "))
				}
				stopped = true
				break
			}
		}
		if stopped {
			continue
		}
		pruneTrue, pruneFalse := nilEdges(p, it.blk.Cond, errObj)
		for si, s := range it.blk.Succs {
			if it.blk.Cond != nil {
				if si == 0 && pruneTrue {
					continue
				}
				if si == 1 && pruneFalse {
					continue
				}
			}
			if !visited[s] {
				visited[s] = true
				work = append(work, item{s, 0})
			}
		}
	}
}

// isPoisonAction reports whether node n performs (or consults) a poison
// target: a store to a declared sticky field, any read of one inside a
// condition or assignment, a call of a declared cleanup function, or a
// call of a same-package function that is itself //repro:poisons.
func isPoisonAction(p *Pass, n ast.Node, targets poisonTargets, decls map[*types.Func]*ast.FuncDecl) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if refsTargetField(lhs, targets) {
				return true
			}
		}
		return containsTargetCall(p, n, targets, decls) || refsTargetFieldNode(n.Rhs, targets)
	case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt:
		return containsTargetCall(p, n, targets, decls) || refsTargetFieldAst(n, targets)
	case ast.Expr: // a block-terminating condition
		return containsTargetCall(p, n, targets, decls) || refsTargetFieldAst(n, targets)
	}
	return false
}

// refsTargetField reports whether e is a sticky field named in targets,
// reached through a selector (w.err). A bare identifier is a variable:
// a local err is not the sticky err field it shares a name with.
func refsTargetField(e ast.Expr, targets poisonTargets) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	return ok && nameIn(sel.Sel.Name, targets.names)
}

func refsTargetFieldNode(exprs []ast.Expr, targets poisonTargets) bool {
	for _, e := range exprs {
		if refsTargetFieldAst(e, targets) {
			return true
		}
	}
	return false
}

func refsTargetFieldAst(n ast.Node, targets poisonTargets) bool {
	found := false
	inspectNoFuncLit(n, func(d ast.Node) {
		if sel, ok := d.(*ast.SelectorExpr); ok && nameIn(sel.Sel.Name, targets.names) {
			found = true
		}
	})
	return found
}

func nameIn(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// containsTargetCall reports whether n's subtree calls a poison target:
// a dotted target (package/receiver-qualified), a bare target matched by
// callee name, or a same-package //repro:poisons function (delegation).
func containsTargetCall(p *Pass, n ast.Node, targets poisonTargets, decls map[*types.Func]*ast.FuncDecl) bool {
	found := false
	inspectNoFuncLit(n, func(d ast.Node) {
		call, ok := d.(*ast.CallExpr)
		if !ok || found {
			return
		}
		fn := calleeFunc(p.TypesInfo, call)
		if fn == nil {
			return
		}
		for _, c := range targets.calls {
			if fn.Name() == c[1] && qualMatches(fn, c[0]) {
				found = true
				return
			}
		}
		if nameIn(fn.Name(), targets.names) {
			found = true
			return
		}
		if fd, ok := decls[fn.Origin()]; ok && p.Directives().FuncHas(fd, DirPoisons) {
			found = true
		}
	})
	return found
}

// qualMatches reports whether fn belongs to package (or receiver type)
// qual: os.Remove matches by package name, WAL.Reset by receiver.
func qualMatches(fn *types.Func, qual string) bool {
	if pkg := fn.Pkg(); pkg != nil && pkg.Name() == qual {
		return true
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == qual {
			return true
		}
	}
	return false
}

// reassignsObj reports whether n overwrites the traced error variable
// with something other than itself (the op's error is gone from it).
func reassignsObj(p *Pass, n ast.Node, obj types.Object) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if o := p.TypesInfo.Uses[id]; o != nil && o == obj {
				return true
			}
			if o := p.TypesInfo.Defs[id]; o != nil && o == obj {
				return true
			}
		}
	}
	return false
}

// refsObj reports whether n's subtree mentions the traced variable.
func refsObj(p *Pass, n ast.Node, obj types.Object) bool {
	found := false
	inspectNoFuncLit(n, func(d ast.Node) {
		if id, ok := d.(*ast.Ident); ok && p.TypesInfo.Uses[id] == obj {
			found = true
		}
	})
	return found
}

// nilEdges classifies a branch condition against the traced error:
// (pruneTrue, pruneFalse) mark edges on which the error is proven nil.
// Recognized: err == nil / err != nil, alone or as the deciding operand
// of && and || chains. Everything else keeps both edges (conservative).
func nilEdges(p *Pass, cond ast.Expr, obj types.Object) (pruneTrue, pruneFalse bool) {
	if cond == nil || obj == nil {
		return false, false
	}
	c := unparen(cond)
	if op, ok := nilCompare(p, c, obj); ok {
		if op == token.EQL { // err == nil: true edge has a nil error
			return true, false
		}
		return false, true // err != nil: false edge has a nil error
	}
	if be, ok := c.(*ast.BinaryExpr); ok {
		if op, ok := nilCompare(p, unparen(be.X), obj); ok {
			switch {
			case be.Op == token.LAND && op == token.EQL:
				// (err == nil && X): true edge proves nil.
				return true, false
			case be.Op == token.LOR && op == token.NEQ:
				// (err != nil || X): false edge proves nil.
				return false, true
			}
		}
	}
	if ue, ok := c.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		pt, pf := nilEdges(p, ue.X, obj)
		return pf, pt
	}
	return false, false
}

// nilCompare matches `obj == nil` / `obj != nil` (either operand order).
func nilCompare(p *Pass, e ast.Expr, obj types.Object) (token.Token, bool) {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0, false
	}
	isObj := func(x ast.Expr) bool {
		id, ok := unparen(x).(*ast.Ident)
		return ok && p.TypesInfo.Uses[id] == obj
	}
	isNil := func(x ast.Expr) bool {
		tv, ok := p.TypesInfo.Types[x]
		return ok && tv.IsNil()
	}
	if (isObj(be.X) && isNil(be.Y)) || (isObj(be.Y) && isNil(be.X)) {
		return be.Op, true
	}
	return 0, false
}

// ackDominated reports whether some durable call or poison consultation
// covers (executes on every path to) the given success return.
func ackDominated(p *Pass, g *cfg.Graph, ret *ast.ReturnStmt, targets poisonTargets, durables map[*types.Func]bool, decls map[*types.Func]*ast.FuncDecl) bool {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n == ret {
				continue
			}
			if (containsDurableCall(p, n, durables) || isPoisonAction(p, n, targets, decls)) && g.Covers(n, ret) {
				return true
			}
		}
	}
	return false
}

func containsDurableCall(p *Pass, n ast.Node, durables map[*types.Func]bool) bool {
	found := false
	inspectNoFuncLit(n, func(d ast.Node) {
		if call, ok := d.(*ast.CallExpr); ok && isDurableCall(p, call, durables) {
			found = true
		}
	})
	return found
}

// inspectNoFuncLit walks n's subtree, skipping function literals: their
// bodies execute at call time, not on the enclosing function's paths.
func inspectNoFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(d ast.Node) bool {
		if d == nil {
			return false
		}
		if _, ok := d.(*ast.FuncLit); ok {
			return false
		}
		fn(d)
		return true
	})
}
