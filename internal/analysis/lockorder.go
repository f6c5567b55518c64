package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder checks mutex discipline on the lock classes in the tree:
// runtime's mailbox.mu and lockedReply's mu, harness.SocketLink.mu,
// datapath.artifactTable.mu, shmring's Mux.mu and Endpoint send/recv/peerMu,
// and ipc's stream send/recvMu (core.Agent and supervise.Standby have one
// owner and none). Every sync.Mutex/RWMutex Lock must be matched by
// an Unlock or a defer in the same function, a mutex must not be re-locked
// on a straight-line path (self-deadlock), and two lock classes must be
// acquired in a consistent order across the package (an A-then-B function
// and a B-then-A function can deadlock against each other).
//
// Events are collected per function in source order; returns and branch
// statements reset the held-set, so conditional early-exit paths
// (lock/unlock/return inside an if) do not produce false positives.
// Instance identity (the receiver variable) is used for the matching and
// double-lock checks; type identity (the lock class, e.g.
// "(*SocketLink).mu") is used for the cross-function ordering graph.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "check Lock/Unlock pairing, straight-line double-Lock, and consistent cross-function mutex acquisition order",
	Run:  runLockOrder,
}

type lockEventKind int

const (
	evLock lockEventKind = iota
	evUnlock
	evDeferUnlock
	evReset // return / break / continue / goto: abandon linear state
)

type lockEvent struct {
	kind  lockEventKind
	read  bool // RLock/RUnlock
	inst  string
	class string
	name  string // source text of the receiver, for messages
	pos   token.Pos
}

// lockEdge is one observed acquisition order: to was locked while from was
// held.
type lockEdge struct {
	pos  token.Pos
	name string
}

func runLockOrder(pass *Pass) error {
	order := make(map[[2]string]lockEdge)
	forEachFuncBody(pass.Files, func(body *ast.BlockStmt) {
		events := collectLockEvents(pass, body)
		checkLockPairing(pass, events)
		checkDoubleLock(pass, events)
		recordLockOrder(events, order)
	})
	reportLockCycles(pass, order)
	return nil
}

// collectLockEvents walks body in source order, skipping nested function
// literals (they run on their own schedule and are collected separately),
// except that Unlocks inside literals still satisfy the pairing check via
// a synthetic defer event (a `defer func() { mu.Unlock() }()` is a common
// shape).
func collectLockEvents(pass *Pass, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	var inspect func(n ast.Node, inLit bool)
	inspect = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n.Body != nil && !inLit {
					inspect(n.Body, true)
				}
				return false
			case *ast.ReturnStmt, *ast.BranchStmt:
				if !inLit {
					events = append(events, lockEvent{kind: evReset, pos: n.Pos()})
				}
			case *ast.DeferStmt:
				if ev, ok := mutexCall(pass, n.Call); ok && !inLit {
					if ev.kind == evUnlock {
						ev.kind = evDeferUnlock
					}
					events = append(events, ev)
					return false
				}
			case *ast.CallExpr:
				if ev, ok := mutexCall(pass, n); ok {
					if inLit {
						// Only unlocks escape a literal, and only to satisfy
						// pairing (treated like a deferred unlock).
						if ev.kind == evUnlock {
							ev.kind = evDeferUnlock
							events = append(events, ev)
						}
					} else {
						events = append(events, ev)
					}
				}
			}
			return true
		})
	}
	inspect(body, false)
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// mutexCall matches Lock/Unlock/RLock/RUnlock calls on sync.Mutex or
// sync.RWMutex receivers.
func mutexCall(pass *Pass, call *ast.CallExpr) (lockEvent, bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	var kind lockEventKind
	read := false
	switch fn.Name() {
	case "Lock":
		kind = evLock
	case "Unlock":
		kind = evUnlock
	case "RLock":
		kind, read = evLock, true
	case "RUnlock":
		kind, read = evUnlock, true
	default:
		return lockEvent{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockEvent{}, false
	}
	recv := namedFrom(sig.Recv().Type())
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return lockEvent{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	inst, class, name := mutexKeys(pass, sel.X)
	if inst == "" {
		return lockEvent{}, false
	}
	return lockEvent{kind: kind, read: read, inst: inst, class: class, name: name, pos: call.Pos()}, true
}

// mutexKeys canonicalizes the receiver expression of a mutex method call.
// The instance key identifies one variable's mutex within a function
// (root object identity + field path); the class key identifies the lock
// class across functions (root static type + field path).
func mutexKeys(pass *Pass, x ast.Expr) (inst, class, name string) {
	var fields []string
	e := ast.Unparen(x)
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			fields = append([]string{v.Sel.Name}, fields...)
			e = ast.Unparen(v.X)
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[v]
			if obj == nil {
				return "", "", ""
			}
			path := strings.Join(fields, ".")
			name = v.Name
			if path != "" {
				name += "." + path
			}
			t := obj.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			inst = fmt.Sprintf("%p.%s", obj, path)
			class = types.TypeString(t, nil) + "." + path
			return inst, class, name
		default:
			return "", "", ""
		}
	}
}

// checkLockPairing reports Locks with no matching Unlock after them and no
// deferred Unlock anywhere in the function.
func checkLockPairing(pass *Pass, events []lockEvent) {
	deferred := map[string]bool{}
	for _, ev := range events {
		if ev.kind == evDeferUnlock {
			deferred[ev.inst+readSuffix(ev.read)] = true
		}
	}
	for i, ev := range events {
		if ev.kind != evLock {
			continue
		}
		key := ev.inst + readSuffix(ev.read)
		if deferred[key] {
			continue
		}
		matched := false
		for _, later := range events[i+1:] {
			if later.kind == evUnlock && later.inst == ev.inst && later.read == ev.read {
				matched = true
				break
			}
		}
		if !matched {
			pass.Reportf(ev.pos, "%s.%s is never released: no %s or defer after this point in the function",
				ev.name, lockName(ev.read), unlockName(ev.read))
		}
	}
}

// checkDoubleLock reports re-locking a mutex that is still held on the
// same straight-line path. For RWMutex the two modes conflict across keys:
// Lock while the same instance is read-locked is the classic write-lock
// upgrade (RLock is not upgradable, and sync.RWMutex writers block behind
// readers, so the path deadlocks against itself), and RLock while
// write-locked blocks the same way.
func checkDoubleLock(pass *Pass, events []lockEvent) {
	held := map[string]token.Pos{}
	for _, ev := range events {
		key := ev.inst + readSuffix(ev.read)
		switch ev.kind {
		case evReset:
			held = map[string]token.Pos{}
		case evUnlock:
			delete(held, key)
		case evLock:
			if prev, ok := held[key]; ok && !ev.read {
				pass.Reportf(ev.pos, "%s.%s while already held (locked at %s): self-deadlock on this path",
					ev.name, lockName(ev.read), pass.Fset.Position(prev))
			}
			if !ev.read {
				if prev, ok := held[ev.inst+"/r"]; ok {
					pass.Reportf(ev.pos, "%s.Lock while read-locked (RLock at %s): write-lock upgrade self-deadlocks",
						ev.name, pass.Fset.Position(prev))
				}
			} else if prev, ok := held[ev.inst]; ok {
				pass.Reportf(ev.pos, "%s.RLock while write-locked (Lock at %s): self-deadlock on this path",
					ev.name, pass.Fset.Position(prev))
			}
			held[key] = ev.pos
		}
	}
}

// recordLockOrder adds held-then-acquired class pairs to the package-wide
// order graph.
func recordLockOrder(events []lockEvent, order map[[2]string]lockEdge) {
	type heldLock struct {
		inst, class, name string
	}
	var held []heldLock
	drop := func(inst string) {
		for i, h := range held {
			if h.inst == inst {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case evReset:
			held = held[:0]
		case evUnlock:
			drop(ev.inst)
		case evLock:
			for _, h := range held {
				if h.class != ev.class {
					edge := [2]string{h.class, ev.class}
					if _, ok := order[edge]; !ok {
						order[edge] = lockEdge{pos: ev.pos, name: h.name + " -> " + ev.name}
					}
				}
			}
			held = append(held, heldLock{inst: ev.inst, class: ev.class, name: ev.name})
		}
	}
}

// reportLockCycles reports pairs of lock classes acquired in both orders.
func reportLockCycles(pass *Pass, order map[[2]string]lockEdge) {
	var edges [][2]string
	for e := range order {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		rev := [2]string{e[1], e[0]}
		other, ok := order[rev]
		if !ok || e[0] > e[1] {
			continue // report each cycle once, from the lexically smaller class
		}
		fwd := order[e]
		pass.Reportf(fwd.pos, "inconsistent lock order: %s here, but %s at %s — the two paths can deadlock",
			fwd.name, other.name, pass.Fset.Position(other.pos))
	}
}

func readSuffix(read bool) string {
	if read {
		return "/r"
	}
	return ""
}

func lockName(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

func unlockName(read bool) string {
	if read {
		return "RUnlock"
	}
	return "Unlock"
}
