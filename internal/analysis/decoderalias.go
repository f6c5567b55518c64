package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DecoderAlias enforces the proto.Decoder aliasing contract: everything
// returned by Decoder.Unmarshal — and everything derived from it (type
// assertions, field views like Measurement.Fields or Install.Prog) — is
// backed by the decoder's scratch storage and is
// invalidated by the next Unmarshal on the same decoder. Values that must
// outlive the next decode go through proto.Clone.
//
// The same discipline governs zero-copy ring frames: RecvFrame and
// TryRecvFrame methods whose first result is a *bufpool.Buf (the
// shmring.Endpoint receive path and the ipc.FrameRecver/TryRecver
// interfaces it is used through) hand out views of ring memory or
// endpoint-owned scratch that the next receive on the same endpoint
// recycles. A view — or bytes derived from it — retained across the next
// receive is reported exactly like decoder scratch retained across the
// next Unmarshal.
//
// Two conservative, intra-procedural checks:
//
//  1. Straight-line staleness: a decoder-derived value used after a
//     subsequent Unmarshal on the same decoder, without an intervening
//     proto.Clone, is reported.
//  2. Loop retention: inside a loop whose body calls Unmarshal, storing a
//     non-Cloned derived value into anything declared outside the loop
//     (append target, assignment, map store, channel send) retains scratch
//     across iterations and is reported.
//
// Passing a derived value to a function call is allowed: the Handler
// contract is "borrowed for the duration of the call".
var DecoderAlias = &Analyzer{
	Name: "decoderalias",
	Doc:  "check that proto.Decoder results are not retained across the next Unmarshal without proto.Clone",
	Run:  runDecoderAlias,
}

func runDecoderAlias(pass *Pass) error {
	forEachFuncBody(pass.Files, func(body *ast.BlockStmt) {
		d := &aliasScan{pass: pass}
		d.stmts(body.List, aliasState{
			derived: make(map[types.Object]types.Object),
			stale:   make(map[types.Object]staleSrc),
		})
	})
	return nil
}

type aliasState struct {
	// derived maps a variable to the scratch owner whose storage it
	// aliases: the decoder of the Unmarshal call, or the endpoint of the
	// RecvFrame/TryRecvFrame call (the receiver variable or field).
	derived map[types.Object]types.Object
	// stale maps a derived variable to the invalidating call.
	stale map[types.Object]staleSrc
}

// staleSrc records the call that invalidated a derived value, so the
// diagnostic can name it ("Unmarshal" recycles decoder scratch;
// "RecvFrame"/"TryRecvFrame" recycle ring memory).
type staleSrc struct {
	pos  token.Pos
	call string
}

func (s aliasState) clone() aliasState {
	c := aliasState{
		derived: make(map[types.Object]types.Object, len(s.derived)),
		stale:   make(map[types.Object]staleSrc, len(s.stale)),
	}
	for k, v := range s.derived {
		c.derived[k] = v
	}
	for k, v := range s.stale {
		c.stale[k] = v
	}
	return c
}

type aliasScan struct {
	pass *Pass
}

func (d *aliasScan) stmts(list []ast.Stmt, st aliasState) {
	for _, s := range list {
		d.stmt(s, st, nil)
	}
}

// loopCtx describes the innermost enclosing loop that contains an
// Unmarshal call, for the retention check.
type loopCtx struct {
	node ast.Node // the ForStmt/RangeStmt
}

func (d *aliasScan) stmt(s ast.Stmt, st aliasState, loop *loopCtx) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range s.List {
			d.stmt(inner, st, loop)
		}
	case *ast.ExprStmt:
		d.checkStale(s.X, st)
		d.noteUnmarshal(s.X, st)
	case *ast.AssignStmt:
		d.assign(s, st, loop)
	case *ast.DeclStmt:
		d.checkStale(s, st)
	case *ast.IfStmt:
		d.stmt(s.Init, st, loop)
		d.checkStale(s.Cond, st)
		d.noteUnmarshal(s.Cond, st)
		d.blockClone(s.Body.List, st, loop)
		if s.Else != nil {
			d.stmt(s.Else, st.clone(), loop)
		}
	case *ast.ForStmt:
		d.stmt(s.Init, st, loop)
		if s.Cond != nil {
			d.checkStale(s.Cond, st)
		}
		inner := st.clone()
		l := d.loopCtxFor(s, s.Body)
		if l == nil {
			l = loop
		}
		d.stmt(s.Post, inner, l)
		for _, b := range s.Body.List {
			d.stmt(b, inner, l)
		}
	case *ast.RangeStmt:
		d.checkStale(s.X, st)
		inner := st.clone()
		// Range variables assigned from a derived expression alias the
		// same scratch (e.g. `for _, sub := range proto.Split(m)`).
		if dec := d.derivedIn(s.X, inner); dec != nil {
			for _, kv := range []ast.Expr{s.Key, s.Value} {
				if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
					if obj := identObj(d.pass.TypesInfo, id); obj != nil {
						inner.derived[obj] = dec
					}
				}
			}
		}
		l := d.loopCtxFor(s, s.Body)
		if l == nil {
			l = loop
		}
		for _, b := range s.Body.List {
			d.stmt(b, inner, l)
		}
	case *ast.SwitchStmt:
		d.stmt(s.Init, st, loop)
		if s.Tag != nil {
			d.checkStale(s.Tag, st)
		}
		for _, c := range s.Body.List {
			d.blockClone(c.(*ast.CaseClause).Body, st, loop)
		}
	case *ast.TypeSwitchStmt:
		d.stmt(s.Init, st, loop)
		// `switch v := m.(type)`: each clause's implicit v aliases m.
		var srcDec types.Object
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			d.checkStale(as.Rhs[0], st)
			srcDec = d.derivedIn(as.Rhs[0], st)
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			d.checkStale(es.X, st)
			srcDec = d.derivedIn(es.X, st)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			inner := st.clone()
			if srcDec != nil {
				if obj := d.pass.TypesInfo.Implicits[cc]; obj != nil {
					inner.derived[obj] = srcDec
				}
			}
			for _, b := range cc.Body {
				d.stmt(b, inner, loop)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := st.clone()
			d.stmt(cc.Comm, inner, loop)
			for _, b := range cc.Body {
				d.stmt(b, inner, loop)
			}
		}
	case *ast.SendStmt:
		d.checkStale(s, st)
		d.retention(s.Chan, s.Value, s.Pos(), st, loop, "sent on a channel")
	case *ast.LabeledStmt:
		d.stmt(s.Stmt, st, loop)
	default:
		d.checkStale(s, st)
		d.noteUnmarshalIn(s, st)
	}
}

func (d *aliasScan) blockClone(list []ast.Stmt, st aliasState, loop *loopCtx) {
	inner := st.clone()
	for _, s := range list {
		d.stmt(s, inner, loop)
	}
}

// loopCtxFor returns a retention context when the loop body contains an
// Unmarshal or ring-receive call (syntactically), meaning scratch or ring
// memory is recycled every iteration.
func (d *aliasScan) loopCtxFor(loop ast.Node, body *ast.BlockStmt) *loopCtx {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, isInv := d.invalidatorCall(call); isInv {
				found = true
			}
		}
		return true
	})
	if !found {
		return nil
	}
	return &loopCtx{node: loop}
}

// assign handles derivation, cleansing, staleness, and retention for one
// assignment statement.
func (d *aliasScan) assign(s *ast.AssignStmt, st aliasState, loop *loopCtx) {
	for _, r := range s.Rhs {
		d.checkStale(r, st)
	}
	// An Unmarshal call on the RHS invalidates everything previously
	// derived from that decoder — before the LHS acquires the new result.
	for _, r := range s.Rhs {
		d.noteUnmarshalIn(r, st)
	}
	// Retention into outer state while inside an Unmarshal loop.
	if loop != nil && len(s.Lhs) == len(s.Rhs) {
		for i, r := range s.Rhs {
			d.retention(s.Lhs[i], r, s.Pos(), st, loop, "stored outside the loop")
		}
	}
	// Derivation / cleansing of LHS variables.
	if len(s.Rhs) == 1 {
		rhs := s.Rhs[0]
		dec := d.unmarshalResultDec(rhs, st)
		if dec == nil && !isCloneCall(d.pass.TypesInfo, rhs) {
			dec = d.derivedIn(rhs, st)
		}
		for _, l := range s.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(d.pass.TypesInfo, id)
			if obj == nil {
				continue
			}
			delete(st.stale, obj)
			if dec != nil && aliasCarrier(obj.Type()) {
				st.derived[obj] = dec
			} else {
				delete(st.derived, obj)
			}
		}
	} else {
		for _, l := range s.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if obj := identObj(d.pass.TypesInfo, id); obj != nil {
					delete(st.derived, obj)
					delete(st.stale, obj)
				}
			}
		}
	}
}

// retention reports a derived, non-Cloned value escaping the Unmarshal
// loop via dst (an assignment target, append target, or channel).
func (d *aliasScan) retention(dst, src ast.Expr, pos token.Pos, st aliasState, loop *loopCtx, how string) {
	if loop == nil {
		return
	}
	if isCloneCall(d.pass.TypesInfo, src) {
		return
	}
	// `outer = append(outer, v)` needs no special case: v is found inside
	// the append call and the target root is the assignment LHS.
	dec := d.derivedIn(src, st)
	if dec == nil {
		return
	}
	root := rootIdent(dst)
	if root == nil {
		return
	}
	obj := identObj(d.pass.TypesInfo, root)
	if obj == nil || d.declaredInside(obj, loop.node) {
		return
	}
	if isNamedType(dec.Type(), "proto", "Decoder") {
		d.pass.Reportf(pos, "decoder-owned value %s across iterations of a loop that calls Unmarshal; it aliases scratch reused by the next decode — proto.Clone it first", how)
	} else {
		d.pass.Reportf(pos, "ring-frame view %s across iterations of a loop that receives frames; it aliases ring memory recycled by the next receive — copy the bytes (or proto.Clone the message) first", how)
	}
}

// declaredInside reports whether obj's declaration lies within node.
func (d *aliasScan) declaredInside(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// checkStale reports uses of stale variables inside n.
func (d *aliasScan) checkStale(n ast.Node, st aliasState) {
	if n == nil || len(st.stale) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := d.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if src, ok := st.stale[obj]; ok {
			if src.call == "Unmarshal" {
				d.pass.Reportf(id.Pos(), "%s aliases decoder scratch invalidated by the Unmarshal at %s; Clone it before the next decode",
					obj.Name(), d.pass.Fset.Position(src.pos))
			} else {
				d.pass.Reportf(id.Pos(), "%s aliases ring memory invalidated by the %s at %s; frame views are only valid until the next receive — copy the bytes out first",
					obj.Name(), src.call, d.pass.Fset.Position(src.pos))
			}
			delete(st.stale, obj)
		}
		return true
	})
}

// noteUnmarshal marks variables derived from a scratch owner as stale when
// e is an invalidating call (Unmarshal, RecvFrame, TryRecvFrame) on it.
func (d *aliasScan) noteUnmarshal(e ast.Expr, st aliasState) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	src, name, isInv := d.invalidatorCall(call)
	if !isInv || src == nil {
		return
	}
	for v, from := range st.derived {
		if from == src {
			st.stale[v] = staleSrc{call.Pos(), name}
			delete(st.derived, v)
		}
	}
}

// noteUnmarshalIn applies noteUnmarshal to every call inside n.
func (d *aliasScan) noteUnmarshalIn(n ast.Node, st aliasState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			d.noteUnmarshal(call, st)
		}
		return true
	})
}

// unmarshalCall matches `recv.Unmarshal(...)` where recv's type is
// proto.Decoder, returning the decoder's identity object (the receiver
// variable, or the field object for selector receivers like l.dec).
func (d *aliasScan) unmarshalCall(call *ast.CallExpr) (types.Object, bool) {
	fn := calleeFunc(d.pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Unmarshal" {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isNamedType(sig.Recv().Type(), "proto", "Decoder") {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, true
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return d.pass.TypesInfo.Uses[x], true
	case *ast.SelectorExpr:
		return d.pass.TypesInfo.Uses[x.Sel], true
	}
	return nil, true
}

// unmarshalResultDec returns the scratch-owner object when rhs is an
// Unmarshal or ring-receive call, i.e. the LHS is a freshly derived value.
func (d *aliasScan) unmarshalResultDec(rhs ast.Expr, st aliasState) types.Object {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	src, _, isInv := d.invalidatorCall(call)
	if !isInv {
		return nil
	}
	return src
}

// invalidatorCall matches the calls that recycle previously handed-out
// storage: Decoder.Unmarshal, and RecvFrame/TryRecvFrame methods whose
// first result is a *bufpool.Buf (shmring.Endpoint and the
// ipc.FrameRecver/TryRecver interfaces). Returns the receiver's identity
// object and the call name.
func (d *aliasScan) invalidatorCall(call *ast.CallExpr) (types.Object, string, bool) {
	if dec, isUn := d.unmarshalCall(call); isUn {
		return dec, "Unmarshal", true
	}
	return d.ringRecvCall(call)
}

// ringRecvCall matches `recv.RecvFrame()` / `recv.TryRecvFrame()` where the
// method's first result is a *bufpool.Buf. Package-level helpers (the
// ipc.RecvFrame convenience wrapper) are deliberately excluded: without a
// receiver there is no per-endpoint identity to key invalidation on.
func (d *aliasScan) ringRecvCall(call *ast.CallExpr) (types.Object, string, bool) {
	fn := calleeFunc(d.pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "RecvFrame" && fn.Name() != "TryRecvFrame") {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 ||
		!isNamedType(sig.Results().At(0).Type(), "bufpool", "Buf") {
		return nil, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, fn.Name(), true
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return d.pass.TypesInfo.Uses[x], fn.Name(), true
	case *ast.SelectorExpr:
		return d.pass.TypesInfo.Uses[x.Sel], fn.Name(), true
	}
	return nil, fn.Name(), true
}

// derivedIn returns the decoder object when expr mentions any derived
// variable (outside a Clone call), or nil.
func (d *aliasScan) derivedIn(e ast.Expr, st aliasState) types.Object {
	if e == nil || len(st.derived) == 0 {
		return nil
	}
	var dec types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if isCloneCall(d.pass.TypesInfo, call) {
				return false
			}
			// A call that returns only scalars (m.FlowSID()) copies data
			// out of the message; its result carries no alias even though
			// a derived variable appears inside.
			if tv, ok := d.pass.TypesInfo.Types[call]; ok && tv.Type != nil && !aliasCarrier(tv.Type) {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if from, ok := st.derived[d.pass.TypesInfo.Uses[id]]; ok && dec == nil {
				dec = from
			}
		}
		return true
	})
	return dec
}

// aliasCarrier reports whether a value of type t can alias decoder scratch:
// pointers, interfaces, slices, and structs with such fields. Plain scalars
// and strings copied out of a message are safe.
func aliasCarrier(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasCarrier(u.Field(i).Type()) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// isCloneCall matches proto.Clone(...), its container form CloneInto, and
// method clones like m.Clone().
func isCloneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Clone", "CloneInto":
		return true
	}
	return false
}

// identObj resolves an identifier to its variable object (use or def).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}
