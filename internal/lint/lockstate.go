// Lexical lock-state tracking for the lockguard analyzer.
//
// A lock scope is one function declaration body or one function literal
// inside it — literals get their own scope because they typically escape
// (go statements, defers, callbacks) and so do not inherit the enclosing
// function's held set. Within a scope, Lock/RLock and Unlock/RUnlock
// calls are paired lexically into held intervals:
//
//   - `defer mu.Unlock()` extends the matching acquisition to the end of
//     the scope;
//   - an explicit unlock inside an early-exit block (a non-outermost
//     statement list ending in return/break/continue/goto or a panic)
//     does NOT close the mainline interval — control flow leaves the
//     function there, so the lexically-following code only runs with the
//     lock still held (`if stopped { mu.Unlock(); return }` idiom);
//   - conversely, an ACQUISITION inside an early-exit block never extends
//     past that block: control cannot flow from the block to the
//     lexically-following code, so `if err != nil { mu.Lock(); defer
//     mu.Unlock(); return err }` holds nothing over the rest of the
//     function;
//   - Lock/Unlock and RLock/RUnlock pair independently, so read-side and
//     write-side holds are distinguished.
//
// Mutexes are told apart by the final element of the locked expression
// ("mu" in sd.mu.Lock()), whatever their type, so a sync.Mutex and a
// lockrank.Mutex read the same. The model is lexical, not a CFG: loops,
// gotos and aliasing are approximated, biased toward false negatives (an
// access stays quiet whenever a covering interval exists).
package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// lockEvent is one Lock/RLock/Unlock/RUnlock call in a scope.
type lockEvent struct {
	pos      token.Pos
	name     string // final path element of the mutex expression ("mu")
	read     bool   // RLock / RUnlock
	acquire  bool   // Lock / RLock
	deferred bool   // inside a defer statement
	terminal bool   // unlock on an early-exit path (see package comment)
	// clip bounds how far an acquisition can extend: the end of the
	// innermost early-exit block containing it, or NoPos on the mainline.
	clip token.Pos
}

// muInterval is one lexical region during which a mutex is held.
type muInterval struct {
	start, end token.Pos
	read       bool
}

func (iv muInterval) covers(p token.Pos) bool { return iv.start < p && p <= iv.end }

// lockScope is the lock state of one function body or function literal.
type lockScope struct {
	fnName string
	body   *ast.BlockStmt
	events []lockEvent

	byName map[string][]muInterval // keyed by mutex field/ident name
}

// contains reports whether the scope's body lexically contains pos.
func (sc *lockScope) contains(pos token.Pos) bool {
	return sc.body.Pos() <= pos && pos <= sc.body.End()
}

// heldByName reports whether any interval (read or write) of the named
// mutex covers pos.
func (sc *lockScope) heldByName(name string, pos token.Pos) bool {
	for _, iv := range sc.byName[name] {
		if iv.covers(pos) {
			return true
		}
	}
	return false
}

// collectLockScopes builds the lock scopes of fd: one for the declaration
// body plus one per function literal, at any nesting depth.
func collectLockScopes(fd *ast.FuncDecl) []*lockScope {
	var out []*lockScope
	var build func(name string, body *ast.BlockStmt)
	build = func(name string, body *ast.BlockStmt) {
		sc := &lockScope{fnName: name, body: body}
		collectLockEvents(sc, body)
		sc.finish()
		out = append(out, sc)
		// Nested literals become their own scopes.
		n := 0
		ast.Inspect(body, func(node ast.Node) bool {
			if node == body {
				return true
			}
			if lit, ok := node.(*ast.FuncLit); ok {
				n++
				build(name+"."+litSuffix(n), lit.Body)
				return false
			}
			return true
		})
	}
	build(fd.Name.Name, fd.Body)
	return out
}

func litSuffix(n int) string {
	return "func" + strconv.Itoa(n) // cosmetic only; matches the runtime's func1 style
}

// innermostScope returns the tightest scope containing pos.
func innermostScope(scopes []*lockScope, pos token.Pos) *lockScope {
	var best *lockScope
	for _, sc := range scopes {
		if !sc.contains(pos) {
			continue
		}
		if best == nil || (best.body.Pos() <= sc.body.Pos() && sc.body.End() <= best.body.End()) {
			best = sc
		}
	}
	return best
}

// collectLockEvents walks body's statements in lexical order, recording
// mutex calls with their defer/terminal context. Function literals are
// not descended into — they form separate scopes.
func collectLockEvents(sc *lockScope, body *ast.BlockStmt) {
	var walkStmts func(list []ast.Stmt, outermost bool, clip token.Pos)
	var walkStmt func(s ast.Stmt, terminal bool, clip token.Pos)

	walkStmts = func(list []ast.Stmt, outermost bool, clip token.Pos) {
		terminal := !outermost && stmtsTerminate(list)
		if terminal {
			// Events in this list can never reach past its last statement.
			clip = list[len(list)-1].End()
		}
		for _, s := range list {
			walkStmt(s, terminal, clip)
		}
	}
	walkStmt = func(s ast.Stmt, terminal bool, clip token.Pos) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				sc.lockCall(call, false, terminal, clip)
			}
		case *ast.DeferStmt:
			sc.lockCall(s.Call, true, terminal, clip)
		case *ast.BlockStmt:
			walkStmts(s.List, false, clip)
		case *ast.LabeledStmt:
			walkStmt(s.Stmt, terminal, clip)
		case *ast.IfStmt:
			if s.Init != nil {
				walkStmt(s.Init, terminal, clip)
			}
			walkStmts(s.Body.List, false, clip)
			switch el := s.Else.(type) {
			case *ast.BlockStmt:
				walkStmts(el.List, false, clip)
			case *ast.IfStmt:
				walkStmt(el, terminal, clip)
			}
		case *ast.ForStmt:
			walkStmts(s.Body.List, false, clip)
		case *ast.RangeStmt:
			walkStmts(s.Body.List, false, clip)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false, clip)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false, clip)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkStmts(cc.Body, false, clip)
				}
			}
		}
	}
	walkStmts(body.List, true, token.NoPos)
}

// stmtsTerminate reports whether a statement list ends by leaving the
// enclosing control flow: return, break/continue/goto, or a panic-like
// call.
func stmtsTerminate(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			return isPanicCall(call)
		}
	}
	return false
}

// isPanicCall recognizes panic, os.Exit, runtime.Goexit and log.Fatal*.
func isPanicCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			case x.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			}
		}
	}
	return false
}

// lockCall records call as a lock event if it is a mutex operation.
func (sc *lockScope) lockCall(call *ast.CallExpr, deferred, terminal bool, clip token.Pos) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	var read, acquire bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return
	}
	name := ""
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	default:
		return
	}
	sc.events = append(sc.events, lockEvent{
		pos:      call.Pos(),
		name:     name,
		read:     read,
		acquire:  acquire,
		deferred: deferred,
		terminal: terminal,
		clip:     clip,
	})
}

// finish pairs the recorded events into held intervals.
func (sc *lockScope) finish() {
	sort.Slice(sc.events, func(i, j int) bool { return sc.events[i].pos < sc.events[j].pos })
	end := sc.body.End()
	sc.byName = buildIntervals(sc.events, end)
}

func buildIntervals(events []lockEvent, end token.Pos) map[string][]muInterval {
	type open struct {
		pos  token.Pos
		read bool
		clip token.Pos
	}
	opens := map[string][]open{}
	out := map[string][]muInterval{}
	clipped := func(o open, ivEnd token.Pos) token.Pos {
		if o.clip.IsValid() && o.clip < ivEnd {
			return o.clip
		}
		return ivEnd
	}
	for _, ev := range events {
		k := ev.name
		if ev.acquire {
			opens[k] = append(opens[k], open{ev.pos, ev.read, ev.clip})
			continue
		}
		// Release. Early-exit unlocks do not close the mainline interval.
		if ev.terminal && !ev.deferred {
			continue
		}
		stack := opens[k]
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].read != ev.read {
				continue
			}
			o := stack[i]
			opens[k] = append(stack[:i], stack[i+1:]...)
			ivEnd := ev.pos
			if ev.deferred {
				ivEnd = end // defer releases at scope exit
			}
			out[k] = append(out[k], muInterval{start: o.pos, end: clipped(o, ivEnd), read: o.read})
			break
		}
	}
	// Acquisitions with no visible release are held to the end of the scope
	// (bounded by the early-exit block they sit in, if any).
	for k, stack := range opens {
		for _, o := range stack {
			out[k] = append(out[k], muInterval{start: o.pos, end: clipped(o, end), read: o.read})
		}
	}
	return out
}
