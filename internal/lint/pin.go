package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PinDiscipline enforces the NAIM loader's pin protocol at call
// sites: a body checked out with src.Function(pid) (a write checkout)
// or src.View(pid) (a read checkout) stays pinned — immune to
// compaction and budget accounting — until the matching
// src.DoneWith(pid). It reports two shapes.
//
// A leak: a function that takes pins on some source and never
// releases any of them (it shows up as the naim.pin_leaks counter at
// phase close). Inside each function declaration, every receiver
// expression that appears in a one-argument `.Function(x)` or
// `.View(x)` call must also appear in at least one `.DoneWith(y)` call
// anywhere in the same declaration (a defer, a loop body, and a nested
// closure all count — ownership transfer across functions does not
// happen in this codebase). The one-argument shape keeps
// package-level helpers like analyze.Function(prog, f, level) out of
// scope.
//
// A use after release: a variable bound to `src.Function(pid)` or
// `src.View(pid)` that is read by a statement following a plain
// `src.DoneWith(pid)` statement in the same statement list (same
// receiver, same argument text), with no reassignment in between. The
// loader may evict the body as soon as the pin drops, so such a read
// sees a body that is no longer the loader's. Deferred releases and
// releases in a nested block (an early-return branch) are not
// matched, which keeps the check free of path reasoning.
var PinDiscipline = &Analyzer{
	Name: "pindiscipline",
	Doc:  "every src.Function/View(pid) pin needs a src.DoneWith release in the same function, and no read of the body after it",
	Run:  runPinDiscipline,
}

// isCheckout reports whether method/args is the one-argument pin
// shape.
func isCheckout(method string, call *ast.CallExpr) bool {
	return (method == "Function" || method == "View") && len(call.Args) == 1
}

func runPinDiscipline(p *Pass) {
	for _, decl := range p.File.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		// First checkout position (and its method) per receiver, and
		// the set of receivers released by a DoneWith.
		type pin struct {
			pos    token.Pos
			method string
		}
		pins := map[string]pin{}
		released := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			recv, method, call, ok := selectorCall(n)
			if !ok || recv == "" {
				return true
			}
			switch {
			case isCheckout(method, call):
				if _, seen := pins[recv]; !seen {
					pins[recv] = pin{call.Pos(), method}
				}
			case method == "DoneWith":
				released[recv] = true
			}
			return true
		})
		for recv, pn := range pins {
			if !released[recv] {
				p.Reportf(pn.pos, "%s.%s pins a body but this function never calls %s.DoneWith", recv, pn.method, recv)
			}
		}
		checkUseAfterRelease(p, fd.Body)
	}
}

// checkout is what a variable was last bound to: recv.Method(arg).
type checkout struct{ recv, arg string }

// checkUseAfterRelease reports reads of a checked-out body that follow
// its release in the same statement list.
func checkUseAfterRelease(p *Pass, body *ast.BlockStmt) {
	// Every variable bound to a checkout anywhere in the function.
	bound := map[string]checkout{}
	bind := func(lhs []ast.Expr, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return
		}
		for i, r := range rhs {
			id, ok := lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			recv, method, call, ok := selectorCall(r)
			if ok && recv != "" && isCheckout(method, call) {
				bound[id.Name] = checkout{recv, types.ExprString(call.Args[0])}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			bind(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(s.Names))
			for i, id := range s.Names {
				lhs[i] = id
			}
			bind(lhs, s.Values)
		}
		return true
	})
	if len(bound) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch s := n.(type) {
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		default:
			return true
		}
		for i, st := range list {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			recv, method, call, ok := selectorCall(es.X)
			if !ok || recv == "" || method != "DoneWith" || len(call.Args) != 1 {
				continue
			}
			released := checkout{recv, types.ExprString(call.Args[0])}
			for name, co := range bound {
				if co == released {
					reportReadAfter(p, name, recv, list[i+1:])
				}
			}
		}
		return true
	})
}

// reportReadAfter reports the first read of name in stmts, stopping
// at a statement that assigns name afresh.
func reportReadAfter(p *Pass, name, recv string, stmts []ast.Stmt) {
	for _, st := range stmts {
		if as, ok := st.(*ast.AssignStmt); ok && assigns(as, name) {
			// The right-hand side runs first and may still read it.
			for _, r := range as.Rhs {
				if pos := firstRead(r, name); pos.IsValid() {
					p.Reportf(pos, "%s is read after %s.DoneWith released its pin", name, recv)
					return
				}
			}
			return
		}
		if pos := firstRead(st, name); pos.IsValid() {
			p.Reportf(pos, "%s is read after %s.DoneWith released its pin", name, recv)
			return
		}
	}
}

// assigns reports whether as rebinds name.
func assigns(as *ast.AssignStmt, name string) bool {
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}

// firstRead returns the position of the first identifier name in n
// that is not a field or method name of a selector or a composite
// literal's field key, or NoPos.
func firstRead(n ast.Node, name string) token.Pos {
	pos := token.NoPos
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(x.X, visit)
			return false
		case *ast.KeyValueExpr:
			if _, ok := x.Key.(*ast.Ident); ok {
				ast.Inspect(x.Value, visit)
				return false
			}
		case *ast.Ident:
			if x.Name == name {
				pos = x.Pos()
			}
		}
		return true
	}
	ast.Inspect(n, visit)
	return pos
}
