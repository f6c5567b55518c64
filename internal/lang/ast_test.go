package lang

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func env(m map[string]float64) Env {
	return func(name string) (float64, bool) {
		v, ok := m[name]
		return v, ok
	}
}

func TestEvalArithmetic(t *testing.T) {
	e := Add(Mul(C(2), V("x")), Div(V("y"), C(4)))
	got, err := Eval(e, env(map[string]float64{"x": 3, "y": 8}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("got %v, want 8", got)
	}
}

func TestEvalDivByZeroIsZero(t *testing.T) {
	got, err := Eval(Div(C(5), C(0)), env(nil))
	if err != nil || got != 0 {
		t.Fatalf("5/0 = %v, err=%v; want 0, nil", got, err)
	}
}

func TestEvalComparisons(t *testing.T) {
	cases := []struct {
		e    Expr
		want float64
	}{
		{Lt(C(1), C(2)), 1},
		{Lt(C(2), C(1)), 0},
		{Le(C(2), C(2)), 1},
		{Gt(C(3), C(2)), 1},
		{Ge(C(2), C(3)), 0},
		{Eq(C(2), C(2)), 1},
		{Ne(C(2), C(2)), 0},
		{And(C(1), C(0)), 0},
		{And(C(2), C(3)), 1},
		{Or(C(0), C(5)), 1},
		{Or(C(0), C(0)), 0},
		{Min(C(3), C(7)), 3},
		{Max(C(3), C(7)), 7},
	}
	for _, c := range cases {
		got, err := Eval(c.e, env(nil))
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalIf(t *testing.T) {
	e := Ite(Lt(V("q"), C(2)), C(10), C(20))
	if got, _ := Eval(e, env(map[string]float64{"q": 1})); got != 10 {
		t.Fatalf("then branch: %v", got)
	}
	if got, _ := Eval(e, env(map[string]float64{"q": 3})); got != 20 {
		t.Fatalf("else branch: %v", got)
	}
}

func TestEvalUnknownVar(t *testing.T) {
	if _, err := Eval(V("nope"), env(nil)); err == nil {
		t.Fatal("expected error for unknown variable")
	}
}

func TestEvalSquashesNaN(t *testing.T) {
	// 0 * inf would be NaN; inf arises from overflow.
	e := Mul(C(0), Mul(C(math.MaxFloat64), C(2)))
	got, err := Eval(e, env(nil))
	if err != nil || got != 0 {
		t.Fatalf("got %v err=%v, want 0", got, err)
	}
}

func TestVarsCollection(t *testing.T) {
	e := Ite(Lt(V("b"), C(1)), Add(V("a"), V("c")), V("b"))
	got := Vars(e)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("vars=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vars=%v, want %v", got, want)
		}
	}
}

// TestEvalEventsCountTheSelectedPath: both branches of an If are evaluated,
// but only the condition's and the selected branch's substitutions are
// reported — the soundness lane holds the verifier to exactly those.
func TestEvalEventsCountTheSelectedPath(t *testing.T) {
	divZero := Div(C(1), C(0))
	zero := func(string) (float64, bool) { return 0, true }
	nan := func(string) (float64, bool) { return math.NaN(), true }
	for _, tc := range []struct {
		name string
		e    Expr
		env  Env
		want Events
		val  float64
	}{
		{"untaken branch x/0 not counted", Ite(C(0), divZero, C(5)), zero, Events{}, 5},
		{"taken branch x/0 counted", Ite(C(1), divZero, C(5)), zero, Events{DivZero: 1}, 0},
		{"NaN condition selects then", Ite(V("x"), divZero, C(5)), nan, Events{DivZero: 1}, 0},
		{"condition always counts", Ite(Div(C(1), V("x")), C(2), C(3)), zero, Events{DivZero: 1}, 3},
		{"squash counted", Add(Mul(C(math.MaxFloat64), C(2)), C(1)), zero, Events{Squash: 1}, 1},
		{"nested untaken events dropped", Ite(C(1), Ite(C(0), divZero, Mul(C(math.MaxFloat64), C(2))), divZero), zero, Events{Squash: 1}, 0},
	} {
		v, ev, err := EvalEvents(tc.e, tc.env)
		if err != nil || ev != tc.want || v != tc.val {
			t.Errorf("%s: EvalEvents(%s) = %v, %+v, %v; want %v, %+v", tc.name, tc.e, v, ev, err, tc.val, tc.want)
		}
		if plain, _ := Eval(tc.e, tc.env); math.Float64bits(plain) != math.Float64bits(v) {
			t.Errorf("%s: Eval = %v, EvalEvents = %v", tc.name, plain, v)
		}
	}
	// An unknown variable is an error even in the branch not taken.
	if _, _, err := EvalEvents(Ite(C(1), C(2), V("nope")), func(string) (float64, bool) { return 0, false }); err == nil {
		t.Error("unknown variable in the untaken branch was not reported")
	}
}

func TestExprString(t *testing.T) {
	e := Add(Mul(C(1.25), V("rate")), C(0))
	if s := e.String(); s != "(+ (* 1.25 rate) 0)" {
		t.Fatalf("String()=%q", s)
	}
}

// randomExpr builds a random expression over the standard variables.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return Const(math.Trunc(rng.Float64()*200-100) / 4)
		}
		if rng.Intn(2) == 0 {
			return Var(fieldNames[rng.Intn(int(NumPktFields))])
		}
		return Var(flowVarNames[rng.Intn(int(NumFlowVars))])
	}
	if rng.Intn(6) == 0 {
		return &If{randomExpr(rng, depth-1), randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	}
	return &Bin{BinKind(rng.Intn(int(NumBinKinds))), randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	// Property: bytecode evaluation agrees with tree-walking evaluation.
	rng := rand.New(rand.NewSource(11))
	resolve := StdResolver(nil)
	for trial := 0; trial < 500; trial++ {
		e := randomExpr(rng, 5)
		code, err := Compile(e, resolve)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		vars := make([]float64, VarTableSize(0))
		for i := range vars {
			vars[i] = math.Trunc(rng.Float64()*100) / 2
		}
		envFn := func(name string) (float64, bool) {
			slot, ok := resolve(name)
			if !ok {
				return 0, false
			}
			return vars[slot], true
		}
		want, err := Eval(e, envFn)
		if err != nil {
			t.Fatalf("eval %s: %v", e, err)
		}
		got := code.Eval(vars, nil)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: %s: vm=%v interp=%v", trial, e, got, want)
		}
	}
}

func TestCompileUnknownVar(t *testing.T) {
	if _, err := Compile(V("bogus"), StdResolver(nil)); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestCompiledEvalAllocationFree(t *testing.T) {
	e := Ite(Lt(V("pkt.rtt"), C(0.1)), Mul(V("cwnd"), C(2)), Div(V("cwnd"), C(2)))
	code, err := Compile(e, StdResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]float64, VarTableSize(0))
	stack := make([]float64, 0, code.MaxStack)
	allocs := testing.AllocsPerRun(100, func() {
		code.Eval(vars, stack)
	})
	if allocs != 0 {
		t.Fatalf("Eval allocates %v per run", allocs)
	}
}

func TestCompiledEvalDefensive(t *testing.T) {
	// Hand-corrupted bytecode must not panic.
	bad := &Code{
		Insts:    []Inst{{opBin, 0}, {opVar, 9999}, {opSelect, 0}, {opConst, 42}},
		Consts:   nil,
		MaxStack: 4,
	}
	_ = bad.Eval([]float64{1}, nil) // must not panic
}

func TestConstPoolDeduplicates(t *testing.T) {
	e := Add(Mul(C(2), V("cwnd")), C(2))
	code, err := Compile(e, StdResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(code.Consts) != 1 {
		t.Fatalf("const pool=%v, want one entry", code.Consts)
	}
}

func TestQuickCompiledConstsRoundtrip(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		e := Add(C(a), C(b))
		code, err := Compile(e, StdResolver(nil))
		if err != nil {
			return false
		}
		got := code.Eval(nil, nil)
		want := applyBin(OpAdd, a, b, nil)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
