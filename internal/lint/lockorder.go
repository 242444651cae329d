package lint

// lockorder: deadlock prevention by declared lock ranks, checked with a
// forward dataflow over the CFG. Every mutex that participates in
// nesting carries //repro:lockclass <name> <rank> (on the field, or on
// an accessor function returning it); the analyzer computes the set of
// classes held at every acquire site and records a class-level
// acquisition edge held → acquired for each. An edge is legal only if
// the rank strictly increases; a rank inversion, a same-class re-acquire
// while an instance is held, or an edge that closes a cycle in the
// acquisition graph is reported at its first site.
//
// The held-set analysis is flow-sensitive (an Unlock before the next
// Lock removes the class — the WAL's appendRecord unlocks its mutex
// before commit locks it again, and must not be flagged) and models the
// repository's idioms:
//
//   - x.mu.Lock()/RLock()/Unlock()/RUnlock() on an annotated field;
//   - sh.lock()/sh.unlock() seqlock wrappers: a method named
//     lock/unlock/rlock/runlock on a type with exactly one annotated
//     mutex field acquires/releases that field's class;
//   - st := s.stripe(k); st.Lock(): a local assigned from a //repro:lockclass
//     accessor function (or from &classedField / classedArray[i])
//     carries the class;
//   - deferred unlocks do NOT release (the lock is held to function
//     exit), so DurableMap.Put, which read-locks the map with a
//     deferred unlock and then locks the key's stripe, holds both: an
//     edge;
//   - calls of same-package functions add their transitively-acquired
//     classes as edges from everything currently held.
//
// Classes are per-package (ranks live with the fields), and the rank
// bands are a module-wide convention documented in ANNOTATIONS.md so
// cross-package nesting — DurableMap(10,20) → cmap shard(30) → WAL
// (40) → wire server(60) — stays increasing by construction.
//
// The same held-set answers //repro:requires-lock: a function so marked
// (the shard's *Locked resize helpers) mutates state only its caller's
// lock serializes, so every call of it must come from a requires-lock
// function or hold a classed lock on every path to the call — an unlock
// before the call drops it. A function literal may run after its creator
// unlocked, so a call inside one counts as unlocked, and a package that
// classes no mutex cannot show any lock held.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/cfg"
)

// LockOrder is the lockorder analyzer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "//repro:lockclass ranks strictly increase along every lock-acquisition edge; no cycles",
	Run:  runLockOrder,
}

// lockClass is one declared class.
type lockClass struct {
	name string
	rank int
	id   int // bit position in held-set masks
}

func runLockOrder(p *Pass) error {
	lc := collectLockClasses(p)
	decls := funcDecls(p)
	dirs := p.Directives()
	if len(lc.classes) == 0 {
		for _, fd := range sortedDecls(decls) {
			if dirs.FuncHas(fd, DirRequiresLck) {
				p.Reportf(fd.Name.Pos(), "//repro:requires-lock %s in a package with no //repro:lockclass mutex: no caller can be seen holding its lock", fd.Name.Name)
			}
		}
		return nil
	}
	acq := acquireSummaries(p, lc, decls)
	needsLock := func(call *ast.CallExpr) (string, bool) {
		fn := calleeFunc(p.TypesInfo, call)
		if fn == nil || fn.Pkg() != p.Pkg {
			return "", false
		}
		cd, ok := decls[fn.Origin()]
		return fn.Name(), ok && dirs.FuncHas(cd, DirRequiresLck)
	}

	// Record acquisition edges across every function at dataflow fixpoint,
	// and check requires-lock calls against the same held sets.
	edges := map[[2]int]token.Pos{}
	for _, fd := range sortedDecls(decls) {
		if fd.Body == nil {
			continue
		}
		check := needsLock
		if dirs.FuncHas(fd, DirRequiresLck) {
			check = nil // the obligation passes to fd's callers
		}
		recordEdges(p, fd, lc, decls, acq, edges, check)
	}

	reportLockEdges(p, lc, edges)
	return nil
}

// classIndex resolves annotated mutex fields and accessor functions.
type classIndex struct {
	classes []*lockClass
	byName  map[string]*lockClass
	fields  map[*types.Var]*lockClass  // annotated mutex fields (Origin)
	funcs   map[*types.Func]*lockClass // annotated accessor functions
	// lockMethods maps a lock()/unlock()-style wrapper method to its
	// receiver's single annotated class (true = acquire, false = release).
	lockMethods map[*types.Func]lockMethod
}

type lockMethod struct {
	class   *lockClass
	acquire bool
}

func (ci *classIndex) intern(p *Pass, name string, rank int, pos token.Pos) *lockClass {
	if c, ok := ci.byName[name]; ok {
		if c.rank != rank {
			p.Reportf(pos, "//repro:lockclass %s declared with rank %d here but rank %d elsewhere — one class, one rank", name, rank, c.rank)
		}
		return c
	}
	c := &lockClass{name: name, rank: rank, id: len(ci.classes)}
	ci.classes = append(ci.classes, c)
	ci.byName[name] = c
	return c
}

func collectLockClasses(p *Pass) *classIndex {
	ci := &classIndex{
		byName:      map[string]*lockClass{},
		fields:      map[*types.Var]*lockClass{},
		funcs:       map[*types.Func]*lockClass{},
		lockMethods: map[*types.Func]lockMethod{},
	}
	dirs := p.Directives()
	// Annotated struct fields.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				dir, ok := dirs.Field(field, DirLockClass)
				if !ok {
					continue
				}
				name, rank, ok := parseLockClassArgs(dir.Args)
				if !ok {
					p.Reportf(dir.Pos, "//repro:lockclass wants `<name> <rank>`, got %q", dir.Args)
					continue
				}
				c := ci.intern(p, name, rank, dir.Pos)
				for _, id := range field.Names {
					if v, ok := p.TypesInfo.Defs[id].(*types.Var); ok {
						ci.fields[v.Origin()] = c
					}
				}
			}
			return true
		})
	}
	// Annotated accessor functions (e.g. stripe() returning &s.stripes[i]).
	for fn, fd := range p.FuncDecls() {
		if dir, ok := dirs.Func(fd, DirLockClass); ok {
			name, rank, ok := parseLockClassArgs(dir.Args)
			if !ok {
				p.Reportf(dir.Pos, "//repro:lockclass wants `<name> <rank>`, got %q", dir.Args)
				continue
			}
			ci.funcs[fn.Origin()] = ci.intern(p, name, rank, dir.Pos)
		}
	}
	// lock()/unlock() wrapper methods on single-class receivers.
	for fn, fd := range p.FuncDecls() {
		if fd.Recv == nil {
			continue
		}
		var acquire bool
		switch fd.Name.Name {
		case "lock", "Lock", "rlock", "RLock":
			acquire = true
		case "unlock", "Unlock", "runlock", "RUnlock":
			acquire = false
		default:
			continue
		}
		c := soleClassOfReceiver(p, fn, ci)
		if c != nil {
			ci.lockMethods[fn.Origin()] = lockMethod{class: c, acquire: acquire}
		}
	}
	return ci
}

func parseLockClassArgs(args string) (string, int, bool) {
	fields := strings.Fields(args)
	if len(fields) != 2 {
		return "", 0, false
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil {
		return "", 0, false
	}
	return fields[0], rank, true
}

// soleClassOfReceiver returns the receiver type's annotated class if it
// has exactly one annotated mutex field.
func soleClassOfReceiver(p *Pass, fn *types.Func, ci *classIndex) *lockClass {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var found *lockClass
	for i := 0; i < st.NumFields(); i++ {
		if c, ok := ci.fields[st.Field(i).Origin()]; ok {
			if found != nil && found != c {
				return nil // ambiguous: two classes on one receiver
			}
			found = c
		}
	}
	return found
}

// lockEvent is one acquire or release resolved at a call site.
type lockEvent struct {
	class   *lockClass
	acquire bool
	// summary holds transitively-acquired classes for plain in-package
	// calls (class == nil then).
	summary uint64
	pos     token.Pos
}

// resolveLockEvent classifies a call expression, using the per-function
// local alias map (locals) for `st := s.stripe(k); st.Lock()` shapes.
func resolveLockEvent(p *Pass, call *ast.CallExpr, ci *classIndex, locals map[types.Object]*lockClass, decls map[*types.Func]*ast.FuncDecl, acq map[*ast.FuncDecl]uint64) (lockEvent, bool) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		isAcq := name == "Lock" || name == "RLock"
		isRel := name == "Unlock" || name == "RUnlock"
		if isAcq || isRel {
			if c := classOfMutexExpr(p, sel.X, ci, locals); c != nil {
				return lockEvent{class: c, acquire: isAcq, pos: call.Pos()}, true
			}
		}
	}
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil || fn.Pkg() != p.Pkg {
		return lockEvent{}, false
	}
	if lm, ok := ci.lockMethods[fn.Origin()]; ok {
		return lockEvent{class: lm.class, acquire: lm.acquire, pos: call.Pos()}, true
	}
	if fd, ok := decls[fn.Origin()]; ok {
		if sum := acq[fd]; sum != 0 {
			return lockEvent{summary: sum, pos: call.Pos()}, true
		}
	}
	return lockEvent{}, false
}

// classOfMutexExpr resolves the expression a Lock/Unlock is called on:
// a selector ending in an annotated field, an index into an annotated
// array field, or a local carrying a class through the alias map.
func classOfMutexExpr(p *Pass, e ast.Expr, ci *classIndex, locals map[types.Object]*lockClass) *lockClass {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := p.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			if c, ok := ci.fields[v.Origin()]; ok {
				return c
			}
		}
	case *ast.IndexExpr: // s.stripes[i].Lock()
		return classOfMutexExpr(p, e.X, ci, locals)
	case *ast.Ident:
		obj := p.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		return locals[obj]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return classOfMutexExpr(p, e.X, ci, locals)
		}
	}
	return nil
}

// localAliases scans a body once for `x := <class-carrying expr>`
// assignments: address-of / index of an annotated field, or a call of an
// annotated accessor. Flow-insensitive — good enough for the
// take-the-stripe-then-lock-it idiom.
func localAliases(p *Pass, fd *ast.FuncDecl, ci *classIndex) map[types.Object]*lockClass {
	locals := map[types.Object]*lockClass{}
	inspectNoFuncLit(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.TypesInfo.Defs[id]
			if obj == nil {
				obj = p.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if c := classOfValueExpr(p, as.Rhs[i], ci, locals); c != nil {
				locals[obj] = c
			}
		}
	})
	return locals
}

func classOfValueExpr(p *Pass, e ast.Expr, ci *classIndex, locals map[types.Object]*lockClass) *lockClass {
	switch e := unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return classOfMutexExpr(p, e.X, ci, locals)
		}
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.Ident:
		return classOfMutexExpr(p, e.(ast.Expr), ci, locals)
	case *ast.CallExpr:
		if fn := calleeFunc(p.TypesInfo, e); fn != nil {
			if c, ok := ci.funcs[fn.Origin()]; ok {
				return c
			}
		}
	}
	return nil
}

// acquireSummaries computes, to fixpoint, the set of classes each
// package function may acquire directly or through in-package calls.
func acquireSummaries(p *Pass, ci *classIndex, decls map[*types.Func]*ast.FuncDecl) map[*ast.FuncDecl]uint64 {
	acq := map[*ast.FuncDecl]uint64{}
	for changed := true; changed; {
		changed = false
		for _, fd := range sortedDecls(decls) {
			if fd.Body == nil {
				continue
			}
			locals := localAliases(p, fd, ci)
			var sum uint64
			inspectNoFuncLit(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				ev, ok := resolveLockEvent(p, call, ci, locals, decls, acq)
				if !ok {
					return
				}
				if ev.class != nil && ev.acquire {
					sum |= 1 << ev.class.id
				}
				sum |= ev.summary
			})
			if sum != acq[fd] {
				acq[fd] = sum
				changed = true
			}
		}
	}
	return acq
}

// heldSet is the held-set dataflow fact: the classes held on some path
// to a point (may), which orders acquisitions, and on every path (must),
// which a requires-lock call needs.
type heldSet struct{ may, must uint64 }

// recordEdges runs the held-set dataflow over fd and records a
// held → acquired edge for every acquisition made with locks held. With
// a non-nil needsLock, which names the callee of a call that requires a
// lock, it also reports each such call made with no class held on every
// path to it, or made from a function literal.
func recordEdges(p *Pass, fd *ast.FuncDecl, ci *classIndex, decls map[*types.Func]*ast.FuncDecl, acq map[*ast.FuncDecl]uint64, edges map[[2]int]token.Pos, needsLock func(*ast.CallExpr) (string, bool)) {
	g := p.CFG(fd)
	if g == nil {
		return
	}
	locals := localAliases(p, fd, ci)

	// edge records held → to at pos, keeping each edge's first site.
	edge := func(held uint64, to int, pos token.Pos) {
		for _, c := range ci.classes {
			if held&(1<<c.id) != 0 {
				key := [2]int{c.id, to}
				if _, seen := edges[key]; !seen {
					edges[key] = pos
				}
			}
		}
	}
	// apply applies one node's lock events to a held set; when record is
	// set, acquisition edges land in the edges map and requires-lock
	// calls are checked.
	apply := func(n ast.Node, held heldSet, record bool) heldSet {
		_, deferred := n.(*ast.DeferStmt) // a deferred unlock holds to exit
		inspectNoFuncLit(n, func(d ast.Node) {
			call, ok := d.(*ast.CallExpr)
			if !ok {
				return
			}
			if record && needsLock != nil && held.must == 0 {
				if name, ok := needsLock(call); ok {
					p.Reportf(call.Pos(), "call of //repro:requires-lock %s from %s with no //repro:lockclass lock held on every path to it", name, fd.Name.Name)
				}
			}
			ev, ok := resolveLockEvent(p, call, ci, locals, decls, acq)
			if !ok {
				return
			}
			switch {
			case ev.class != nil && ev.acquire:
				if record {
					edge(held.may, ev.class.id, ev.pos)
				}
				held.may |= 1 << ev.class.id
				held.must |= 1 << ev.class.id
			case ev.class != nil && !deferred:
				held.may &^= 1 << ev.class.id
				held.must &^= 1 << ev.class.id
			case ev.summary != 0 && record:
				for _, t := range ci.classes {
					if ev.summary&(1<<t.id) != 0 {
						edge(held.may, t.id, ev.pos)
					}
				}
			}
		})
		return held
	}

	in := cfg.Forward(g, cfg.ForwardProblem[heldSet]{
		Entry: heldSet{},
		Init:  func(*cfg.Block) heldSet { return heldSet{must: ^uint64(0)} },
		Join:  func(a, b heldSet) heldSet { return heldSet{a.may | b.may, a.must & b.must} },
		Equal: func(a, b heldSet) bool { return a == b },
		Transfer: func(b *cfg.Block, held heldSet) heldSet {
			for _, n := range b.Nodes {
				held = apply(n, held, false)
			}
			return held
		},
	})
	// One recording pass with the fixpoint in-states.
	for _, b := range g.Blocks {
		if !g.Reachable(b) {
			continue
		}
		held := in[b.Index]
		for _, n := range b.Nodes {
			held = apply(n, held, true)
		}
	}
	if needsLock == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := needsLock(call); ok {
					p.Reportf(call.Pos(), "call of //repro:requires-lock %s from a function literal in %s, which may run with no lock held", name, fd.Name.Name)
				}
			}
			return true
		})
		return false
	})
}

// reportLockEdges checks every recorded edge for rank inversions and
// cycle closure.
func reportLockEdges(p *Pass, ci *classIndex, edges map[[2]int]token.Pos) {
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return edges[keys[i]] < edges[keys[j]] })

	adj := map[int][]int{}
	for _, k := range keys {
		from, to := ci.classes[k[0]], ci.classes[k[1]]
		switch {
		case from == to:
			p.Reportf(edges[k], "lock class %s (rank %d) acquired while an instance of the same class is already held — ranks must strictly increase", to.name, to.rank)
		case from.rank >= to.rank:
			p.Reportf(edges[k], "lock order inversion: %s (rank %d) acquired while holding %s (rank %d) — ranks must strictly increase", to.name, to.rank, from.name, from.rank)
		}
		adj[k[0]] = append(adj[k[0]], k[1])
	}

	// Report each cycle once, at the edge that closes it.
	for _, k := range keys {
		if k[0] == k[1] {
			continue // self-edges already reported
		}
		if path := findPath(adj, k[1], k[0]); path != nil {
			names := make([]string, 0, len(path)+1)
			for _, id := range append(path, k[1]) {
				names = append(names, ci.classes[id].name)
			}
			p.Reportf(edges[k], "lock classes form an acquisition cycle: %s", strings.Join(names, " -> "))
			return // one cycle report per package keeps the signal readable
		}
	}
}

// findPath returns a path from src to dst in adj, or nil.
func findPath(adj map[int][]int, src, dst int) []int {
	seen := map[int]bool{src: true}
	var dfs func(cur int, path []int) []int
	dfs = func(cur int, path []int) []int {
		if cur == dst {
			return append(path, cur)
		}
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				if r := dfs(next, append(path, cur)); r != nil {
					return r
				}
			}
		}
		return nil
	}
	return dfs(src, nil)
}
