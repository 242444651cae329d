// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, with an iterative dominance computation and a small
// forward-dataflow driver — the path-sensitive substrate under the
// fsyncorder, boundedinput and lockorder analyzers (package
// repro/internal/lint).
//
// Supported statement subset (everything the repository's hot paths
// use): sequencing, if/else, for (init/cond/post and bare `for {}`),
// range, switch and type switch (with fallthrough), select, return,
// panic calls, labeled statements with labeled break/continue, goto,
// and defer. Function literals are opaque: a FuncLit's body runs at
// call time, not where it is written, so its statements are never
// spliced into the enclosing graph.
//
// A graph is pure syntax — no type information — so it can be built
// once per function and shared by every analyzer of a package.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// A Block is a maximal straight-line run of AST nodes: if control
// enters the block, every node in Nodes executes in order (a node is a
// statement, the condition expression that terminates the block, or a
// range head's range expression and iteration bindings).
// Blocks with a non-nil Cond branch on it: Succs[0] is the true edge
// and Succs[1] the false edge. Blocks without a condition either flow
// unconditionally (one successor), dispatch (switch/select/range heads
// with several successors, unlabeled), or end the function (no
// successors — only the exit block).
type Block struct {
	Index int        // position in Graph.Blocks
	Kind  string     // a human label: "entry", "if.then", "for.cond", ...
	Nodes []ast.Node // statements and terminator conditions, execution order
	Cond  ast.Expr   // non-nil when Succs[0]/Succs[1] are the true/false edges
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// A Graph is one function body's control-flow graph. Entry is where
// control arrives; Exit is the synthetic block every return, panic and
// final fall-off edges into (deferred calls conceptually run on the
// edges into Exit).
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// Defers lists the defer statements in registration order. A
	// deferred call runs on every path from its registration point to
	// Exit, so "the defer's block dominates B" is the right question
	// for 'does the deferred call cover B's exits'.
	Defers []*ast.DeferStmt

	nodes map[ast.Node]nodeRef // every placed node and its descendants
	idom  []int32              // immediate dominator per block, -1 unreachable
	rpo   []int32              // reverse-postorder number per block, -1 unreachable
}

type nodeRef struct {
	block *Block
	index int // position of the covering top-level node in block.Nodes
}

// New builds the graph for one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelTarget{}}
	g.Entry = b.newBlock("entry")
	g.Exit = &Block{Kind: "exit"}
	b.cur = g.Entry
	b.stmtList(body.List)
	b.jump(g.Exit)
	// The exit block is appended last so Blocks reads in creation order.
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	for _, pg := range b.pendingGotos {
		if t, ok := b.labels[pg.label]; ok && t.start != nil {
			b.edgeFrom(pg.from, t.start)
		} else {
			// A goto to a label the builder never placed (malformed
			// source); fail safe toward the exit.
			b.edgeFrom(pg.from, g.Exit)
		}
	}
	g.index()
	g.dominate()
	return g
}

// FuncGraph builds the graph for fd's body (nil for bodyless decls).
func FuncGraph(fd *ast.FuncDecl) *Graph {
	if fd == nil || fd.Body == nil {
		return nil
	}
	return New(fd.Body)
}

// BlockOf returns the block containing n — n may be any placed
// statement, terminator condition, or descendant of one — and the index
// of its covering node within the block. Nodes the builder never placed
// (e.g. an IfStmt itself, whose Init/Cond/branches are split across
// blocks) return (nil, 0).
func (g *Graph) BlockOf(n ast.Node) (*Block, int) {
	ref, ok := g.nodes[n]
	if !ok {
		return nil, 0
	}
	return ref.block, ref.index
}

// Dominates reports whether a dominates b: every path from Entry to b
// passes through a (reflexively: a dominates itself). Unreachable
// blocks are dominated by nothing and dominate nothing.
func (g *Graph) Dominates(a, b *Block) bool {
	if g.rpo[a.Index] < 0 || g.rpo[b.Index] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.idom[b.Index]
		if next < 0 || int(next) == b.Index {
			return false
		}
		b = g.Blocks[next]
	}
}

// Covers reports whether node p executes on every path from Entry to
// node q before q does: p's block strictly dominates q's, or both share
// a block with p earlier. Within a block every node executes once the
// block is entered (blocks are straight-line), so block dominance is
// statement dominance.
func (g *Graph) Covers(p, q ast.Node) bool {
	pb, pi := g.BlockOf(p)
	qb, qi := g.BlockOf(q)
	if pb == nil || qb == nil {
		return false
	}
	if pb == qb {
		return pi < qi
	}
	return g.Dominates(pb, qb)
}

// Idom returns b's immediate dominator, or nil for the entry and
// unreachable blocks.
func (g *Graph) Idom(b *Block) *Block {
	if b == g.Entry || g.rpo[b.Index] < 0 {
		return nil
	}
	if i := g.idom[b.Index]; i >= 0 {
		return g.Blocks[i]
	}
	return nil
}

// Reachable reports whether control can reach b from Entry.
func (g *Graph) Reachable(b *Block) bool { return g.rpo[b.Index] >= 0 }

// String renders the graph for tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%s[%d nodes] ->", b, len(b.Nodes))
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " %s", s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// index records every placed node (and its descendants) to its block.
func (g *Graph) index() {
	g.nodes = make(map[ast.Node]nodeRef)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			ref := nodeRef{block: b, index: i}
			ast.Inspect(n, func(d ast.Node) bool {
				if d == nil {
					return false
				}
				if _, dup := g.nodes[d]; !dup {
					g.nodes[d] = ref
				}
				return true
			})
		}
	}
}

// dominate computes immediate dominators with the iterative
// Cooper–Harvey–Kennedy algorithm over reverse postorder.
func (g *Graph) dominate() {
	n := len(g.Blocks)
	g.idom = make([]int32, n)
	g.rpo = make([]int32, n)
	for i := range g.idom {
		g.idom[i] = -1
		g.rpo[i] = -1
	}
	// Postorder DFS from the entry.
	order := make([]*Block, 0, n)
	seen := make([]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(g.Entry)
	// order is postorder; number blocks in reverse postorder.
	for i, j := 0, len(order)-1; j >= 0; i, j = i+1, j-1 {
		g.rpo[order[j].Index] = int32(i)
	}
	g.idom[g.Entry.Index] = int32(g.Entry.Index)
	intersect := func(a, b int32) int32 {
		for a != b {
			for g.rpo[a] > g.rpo[b] {
				a = g.idom[a]
			}
			for g.rpo[b] > g.rpo[a] {
				b = g.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for j := len(order) - 1; j >= 0; j-- { // reverse postorder
			b := order[j]
			if b == g.Entry {
				continue
			}
			var ni int32 = -1
			for _, p := range b.Preds {
				if g.rpo[p.Index] < 0 || g.idom[p.Index] < 0 {
					continue // unreachable or not yet processed
				}
				if ni < 0 {
					ni = int32(p.Index)
				} else {
					ni = intersect(ni, int32(p.Index))
				}
			}
			if ni >= 0 && g.idom[b.Index] != ni {
				g.idom[b.Index] = ni
				changed = true
			}
		}
	}
}

// builder holds the construction state.
type builder struct {
	g      *Graph
	cur    *Block
	labels map[string]*labelTarget
	// loop break/continue targets for the innermost unlabeled construct.
	breaks       []*Block
	continues    []*Block
	pendingGotos []pendingGoto
	label        string // label to attach to the next loop/switch/select
}

type labelTarget struct {
	start *Block // the labeled statement's block (goto target)
	brk   *Block // labeled break target
	cont  *Block // labeled continue target
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edgeFrom(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an unconditional edge to target and
// leaves the builder in a fresh unreachable block (statements after a
// return/break/goto parse but never execute).
func (b *builder) jump(target *Block) {
	b.edgeFrom(b.cur, target)
	b.cur = b.newBlock("unreachable")
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a labelable construct.
func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		// Start a fresh block so gotos have a target; loops consume the
		// label for labeled break/continue.
		start := b.newBlock("label." + s.Label.Name)
		b.edgeFrom(b.cur, start)
		b.cur = start
		t := &labelTarget{start: start}
		b.labels[s.Label.Name] = t
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, b.takeLabel(), "switch")
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, b.takeLabel(), "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
		}
	default:
		// Assignments, declarations, sends, go statements, inc/dec:
		// straight-line nodes.
		b.add(s)
	}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	var target *Block
	switch {
	case s.Label != nil:
		if t, ok := b.labels[s.Label.Name]; ok {
			switch s.Tok.String() {
			case "break":
				target = t.brk
			case "continue":
				target = t.cont
			case "goto":
				if t.start != nil {
					target = t.start
				} else {
					b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
					b.cur = b.newBlock("unreachable")
					return
				}
			}
		} else if s.Tok.String() == "goto" {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.newBlock("unreachable")
			return
		}
	case s.Tok.String() == "break":
		if n := len(b.breaks); n > 0 {
			target = b.breaks[n-1]
		}
	case s.Tok.String() == "continue":
		if n := len(b.continues); n > 0 {
			target = b.continues[n-1]
		}
	case s.Tok.String() == "fallthrough":
		// Handled by switchBody (the clause's final edge); the statement
		// itself is a no-op node here.
		return
	}
	if target == nil {
		target = b.g.Exit // malformed source; fail safe
	}
	b.jump(target)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	b.cur.Cond = s.Cond
	condBlk := b.cur
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	b.edgeFrom(condBlk, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edgeFrom(b.cur, done)
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edgeFrom(condBlk, els)
		b.cur = els
		b.stmt(s.Else)
		b.edgeFrom(b.cur, done)
	} else {
		b.edgeFrom(condBlk, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.cond")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.edgeFrom(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		head.Cond = s.Cond
		b.edgeFrom(head, body)
		b.edgeFrom(head, done)
	} else {
		b.edgeFrom(head, body)
	}
	if label != "" {
		b.labels[label].brk = done
		b.labels[label].cont = post
	}
	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, post)
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.edgeFrom(b.cur, post)
	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edgeFrom(b.cur, head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edgeFrom(b.cur, head)
	// The head holds what it evaluates, the range expression and the
	// per-iteration bindings, never the RangeStmt: that node's subtree
	// includes the body, which may run zero times.
	for _, e := range []ast.Expr{s.X, s.Key, s.Value} {
		if e != nil {
			head.Nodes = append(head.Nodes, e)
		}
	}
	b.edgeFrom(head, body)
	b.edgeFrom(head, done)
	if label != "" {
		b.labels[label].brk = done
		b.labels[label].cont = head
	}
	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.edgeFrom(b.cur, head)
	b.cur = done
}

// switchBody wires the clause blocks of a switch or type switch: the
// dispatch block fans out to every clause (and to done when no default
// exists); each clause falls to done unless it ends in fallthrough.
func (b *builder) switchBody(body *ast.BlockStmt, label, kind string) {
	dispatch := b.cur
	done := b.newBlock(kind + ".done")
	if label != "" {
		b.labels[label].brk = done
	}
	b.breaks = append(b.breaks, done)
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		b.edgeFrom(dispatch, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	if !hasDefault {
		b.edgeFrom(dispatch, done)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		fallsThrough := false
		for j, s := range cc.Body {
			if bs, ok := s.(*ast.BranchStmt); ok && bs.Tok.String() == "fallthrough" && j == len(cc.Body)-1 {
				fallsThrough = true
				break
			}
			b.stmt(s)
		}
		if fallsThrough && i+1 < len(blocks) {
			b.edgeFrom(b.cur, blocks[i+1])
			b.cur = b.newBlock("unreachable")
		} else {
			b.edgeFrom(b.cur, done)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	dispatch := b.cur
	done := b.newBlock("select.done")
	if label != "" {
		b.labels[label].brk = done
	}
	b.breaks = append(b.breaks, done)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		b.edgeFrom(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edgeFrom(b.cur, done)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = done
}
