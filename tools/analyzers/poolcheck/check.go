package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An acquisition is one statement that borrows a pooled value into a
// local variable: v := pool.Get(), v := getFoo(...), or v := NewFoo()
// where v's type has a Release method.
type acquisition struct {
	stmt ast.Stmt     // the acquiring assignment
	v    types.Object // the variable holding the borrowed value
	desc string       // human description of the source, e.g. "bufPool.Get()"
}

// checkFile reports every acquisition in f that can reach a function
// exit (or the end of the variable's scope) without being released,
// deferred, or handed off.
func checkFile(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	var diags []string
	for _, body := range functionBodies(f) {
		c := &checker{fset: fset, info: info, body: body}
		diags = append(diags, c.check()...)
	}
	return diags
}

// functionBodies returns the body of every function declaration and
// function literal in the file. Each body is analyzed independently;
// a value captured by a nested literal counts as escaping the outer one.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

type checker struct {
	fset *token.FileSet
	info *types.Info
	body *ast.BlockStmt

	// per-acquisition walk state
	v        types.Object
	desc     string
	deferred bool // a deferred call releases v, satisfying every exit
	escaped  bool // ownership left this function; stop tracking
	diags    []string
}

func (c *checker) check() []string {
	var diags []string
	for _, acq := range c.findAcquisitions() {
		list, idx := findStmt(c.body, acq.stmt)
		if list == nil {
			continue
		}
		c.v, c.desc = acq.v, acq.desc
		c.deferred, c.escaped, c.diags = false, false, nil
		released, terminated := c.walkStmts(list[idx+1:], false)
		if !released && !terminated && !c.deferred && !c.escaped {
			pos := c.fset.Position(acq.stmt.Pos())
			c.diags = append(c.diags, fmt.Sprintf(
				"%s: %q acquired from %s is never released on the path falling off its scope",
				pos, acq.v.Name(), acq.desc))
		}
		diags = append(diags, c.diags...)
	}
	return diags
}

// findAcquisitions scans the immediate statements of the body (at any
// block depth, but not inside nested function literals) for borrowing
// assignments.
func (c *checker) findAcquisitions() []acquisition {
	var acqs []acquisition
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate function; analyzed on its own
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call := unwrapCall(as.Rhs[0])
		if call == nil {
			return true
		}
		desc, ok := c.acquireDesc(call, id)
		if !ok {
			return true
		}
		obj := c.info.Defs[id]
		if obj == nil {
			obj = c.info.Uses[id]
		}
		if obj != nil {
			acqs = append(acqs, acquisition{stmt: as, v: obj, desc: desc})
		}
		return true
	}
	ast.Inspect(c.body, walk)
	return acqs
}

// unwrapCall digs the call expression out of `pool.Get().(*T)` shapes.
func unwrapCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// acquireDesc classifies a call as a borrowing acquisition.
func (c *checker) acquireDesc(call *ast.CallExpr, lhs *ast.Ident) (string, bool) {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn.Sel.Name == "Get" && len(call.Args) == 0 && isSyncPool(c.info, fn.X) {
			return exprString(fn.X) + ".Get()", true
		}
		if isGetterName(fn.Sel.Name) {
			return fn.Sel.Name + "()", true
		}
		if c.isPairedGetter(fn.Sel) {
			return exprString(fn.X) + "." + fn.Sel.Name + "()", true
		}
		if strings.HasPrefix(fn.Sel.Name, "New") && c.hasReleaseMethod(lhs) {
			return fn.Sel.Name + "()", true
		}
	case *ast.Ident:
		if isGetterName(fn.Name) {
			return fn.Name + "()", true
		}
		if c.isPairedGetter(fn) {
			return fn.Name + "()", true
		}
		if strings.HasPrefix(fn.Name, "New") && c.hasReleaseMethod(lhs) {
			return fn.Name + "()", true
		}
	}
	return "", false
}

// isGetterName matches the free-list borrowing convention: getCtx,
// getFrame, ...
func isGetterName(name string) bool {
	return len(name) > 3 && strings.HasPrefix(name, "get") && name[3] >= 'A' && name[3] <= 'Z'
}

// isPairedGetter recognises the exported free-list convention — GetFrame
// released by PutFrame — without tripping on ordinary accessors like
// GetAttrNS: the callee must be a package-level function whose defining
// package also declares the matching Put counterpart.
func (c *checker) isPairedGetter(id *ast.Ident) bool {
	name := id.Name
	if len(name) <= 3 || !strings.HasPrefix(name, "Get") || name[3] < 'A' || name[3] > 'Z' {
		return false
	}
	fn := c.packageFunc(id)
	return fn != nil && hasCounterpart(fn, "Put"+name[3:])
}

// isPairedPutter is the release side of isPairedGetter: an exported
// Put* package-level function whose package declares the Get counterpart.
func (c *checker) isPairedPutter(id *ast.Ident) bool {
	name := id.Name
	if len(name) <= 3 || !strings.HasPrefix(name, "Put") || name[3] < 'A' || name[3] > 'Z' {
		return false
	}
	fn := c.packageFunc(id)
	return fn != nil && hasCounterpart(fn, "Get"+name[3:])
}

// packageFunc resolves id to the package-level function it names, or nil
// when it is a method, a variable of function type, or unresolved.
func (c *checker) packageFunc(id *ast.Ident) *types.Func {
	fn, ok := c.info.ObjectOf(id).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// hasCounterpart reports whether fn's defining package also declares a
// package-level function with the given name.
func hasCounterpart(fn *types.Func, name string) bool {
	obj, ok := fn.Pkg().Scope().Lookup(name).(*types.Func)
	return ok && obj != nil
}

// hasReleaseMethod reports whether the declared variable's type carries
// a Release or Free method — the free-list convention for constructors.
func (c *checker) hasReleaseMethod(id *ast.Ident) bool {
	obj := c.info.Defs[id]
	if obj == nil {
		obj = c.info.Uses[id]
	}
	if obj == nil {
		return false
	}
	for _, name := range []string{"Release", "Free"} {
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

func isSyncPool(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.UnaryExpr:
		return exprString(x.X)
	}
	return "pool"
}

// findStmt locates the statement list directly containing target and its
// index within it, searching every block-like node of body.
func findStmt(body *ast.BlockStmt, target ast.Stmt) ([]ast.Stmt, int) {
	var list []ast.Stmt
	idx := -1
	ast.Inspect(body, func(n ast.Node) bool {
		if idx >= 0 {
			return false
		}
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		default:
			return true
		}
		for i, s := range stmts {
			if s == target {
				list, idx = stmts, i
				return false
			}
		}
		return true
	})
	return list, idx
}

// walkStmts threads the released state through a statement list. It
// returns the state at the end of the list and whether every path
// through it terminates (return/panic).
func (c *checker) walkStmts(stmts []ast.Stmt, released bool) (bool, bool) {
	for _, s := range stmts {
		var term bool
		released, term = c.walkStmt(s, released)
		if term {
			return released, true
		}
		if c.deferred || c.escaped {
			return true, false
		}
	}
	return released, false
}

func (c *checker) walkStmt(s ast.Stmt, released bool) (bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if c.isRelease(call) {
				return true, false
			}
			if isTerminalCall(call) {
				return released, true
			}
		}
		c.scanEscape(s.X)
		return released, false

	case *ast.DeferStmt:
		if c.isRelease(s.Call) || c.deferReleases(s.Call) {
			c.deferred = true
			return true, false
		}
		c.scanEscape(s.Call)
		return released, false

	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if call := unwrapCall(r); call != nil && c.isRelease(call) {
				return true, false
			}
			if c.usesV(r) {
				c.escaped = true // aliased or stored; ownership is elsewhere now
				return true, false
			}
			c.scanEscape(r)
		}
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && c.info.ObjectOf(id) == c.v {
				c.escaped = true // v reassigned; the borrowed value is gone
				return true, false
			}
		}
		return released, false

	case *ast.DeclStmt:
		if c.usesV(s.Decl) {
			c.escaped = true
			return true, false
		}
		return released, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c.usesV(r) {
				c.escaped = true // ownership transferred to the caller
				return true, true
			}
		}
		if !released && !c.deferred && !c.escaped {
			pos := c.fset.Position(s.Pos())
			acq := c.fset.Position(c.v.Pos())
			c.diags = append(c.diags, fmt.Sprintf(
				"%s: return without releasing %q acquired from %s at line %d",
				pos, c.v.Name(), c.desc, acq.Line))
		}
		return released, true

	case *ast.IfStmt:
		if s.Init != nil {
			released, _ = c.walkStmt(s.Init, released)
		}
		c.scanEscape(s.Cond)
		r1, t1 := c.walkStmts(s.Body.List, released)
		r2, t2 := released, false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			r2, t2 = c.walkStmts(e.List, released)
		case *ast.IfStmt:
			r2, t2 = c.walkStmt(e, released)
		}
		switch {
		case t1 && t2:
			return released, true
		case t1:
			return r2, false
		case t2:
			return r1, false
		default:
			return r1 && r2, false
		}

	case *ast.BlockStmt:
		return c.walkStmts(s.List, released)

	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, released)

	case *ast.ForStmt, *ast.RangeStmt:
		// Loops run zero or more times: walk the body to catch returns
		// and escapes inside it, but do not credit body releases to the
		// fall-through path.
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
			c.scanEscape(s.X)
		}
		c.walkStmts(body.List, released)
		return released, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkClauses(s, released)

	case *ast.GoStmt:
		c.scanEscape(s.Call)
		return released, false

	case *ast.SendStmt:
		if c.usesV(s.Value) {
			c.escaped = true
			return true, false
		}
		return released, false

	case *ast.BranchStmt:
		// break/continue/goto leave this block; treat the path as
		// handled elsewhere rather than guessing the jump target.
		return released, true
	}
	return released, false
}

// walkClauses merges the clause bodies of a switch or select: the state
// after the statement is the conjunction of every falling-through
// clause, plus the no-clause path when there is no default.
func (c *checker) walkClauses(s ast.Stmt, released bool) (bool, bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			released, _ = c.walkStmt(s.Init, released)
		}
		if s.Tag != nil {
			c.scanEscape(s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		hasDefault = true // select always takes exactly one ready case
	}
	out, allTerm := true, true
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			body = cl.Body
		case *ast.CommClause:
			body = cl.Body
		}
		r, t := c.walkStmts(body, released)
		if !t {
			out = out && r
			allTerm = false
		}
	}
	if !hasDefault {
		out = out && released
		allTerm = false
	}
	if allTerm && len(clauses) > 0 {
		return released, true
	}
	return out, false
}

// isRelease reports whether call returns the tracked value to its pool:
// pool.Put(v), putFoo(v), v.Release(), or v.Free().
func (c *checker) isRelease(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if (fn.Sel.Name == "Release" || fn.Sel.Name == "Free") && len(call.Args) == 0 {
			if id, ok := fn.X.(*ast.Ident); ok && c.info.ObjectOf(id) == c.v {
				return true
			}
		}
		if fn.Sel.Name == "Put" && isSyncPool(c.info, fn.X) && c.argUsesV(call) {
			return true
		}
		if isPutterName(fn.Sel.Name) && c.argUsesV(call) {
			return true
		}
		if c.isPairedPutter(fn.Sel) && c.argUsesV(call) {
			return true
		}
	case *ast.Ident:
		if isPutterName(fn.Name) && c.argUsesV(call) {
			return true
		}
		if c.isPairedPutter(fn) && c.argUsesV(call) {
			return true
		}
	}
	return false
}

func isPutterName(name string) bool {
	return len(name) > 3 && strings.HasPrefix(name, "put") && name[3] >= 'A' && name[3] <= 'Z'
}

func (c *checker) argUsesV(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if c.usesV(a) {
			return true
		}
	}
	return false
}

// deferReleases reports whether a deferred func literal releases v.
func (c *checker) deferReleases(call *ast.CallExpr) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isRelease(call) {
			found = true
		}
		return !found
	})
	return found
}

// scanEscape marks v escaped when an expression captures it beyond a
// plain call argument: a closure referencing it, a composite literal
// embedding it, or taking its address.
func (c *checker) scanEscape(n ast.Node) {
	if n == nil || c.escaped {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if c.escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if c.usesV(n.Body) {
				c.escaped = true
			}
			return false
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := e.(*ast.Ident); ok && c.info.ObjectOf(id) == c.v {
					c.escaped = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && c.usesV(n.X) {
				c.escaped = true
			}
		}
		return true
	})
}

// usesV reports whether the subtree mentions the tracked variable.
func (c *checker) usesV(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.ObjectOf(id) == c.v {
			found = true
		}
		return !found
	})
	return found
}

// isTerminalCall recognizes calls that never return.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		name := fn.Sel.Name
		if x, ok := fn.X.(*ast.Ident); ok {
			switch x.Name + "." + name {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
				return true
			}
		}
	}
	return false
}
