package boolexpr

import (
	"testing"
	"testing/quick"
)

// paperFormula is the running example from §4.1:
// (taste > 5) OR (texture > 4 AND name LIKE e%s)
// with p0 = taste>5, p1 = texture>4, p2 = name LIKE e%s.
func paperFormula() Expr {
	return Or{Leaf{0}, And{Leaf{1}, Leaf{2}}}
}

func TestEval(t *testing.T) {
	e := paperFormula()
	cases := []struct {
		assign [3]bool
		want   bool
	}{
		{[3]bool{false, false, false}, false},
		{[3]bool{true, false, false}, true},
		{[3]bool{false, true, false}, false},
		{[3]bool{false, true, true}, true},
		{[3]bool{false, false, true}, false},
		{[3]bool{true, true, true}, true},
	}
	for _, c := range cases {
		got := e.Eval(func(v int) bool { return c.assign[v] })
		if got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.assign, got, c.want)
		}
	}
}

func TestConstEval(t *testing.T) {
	if !Const(true).Eval(nil) || Const(false).Eval(nil) {
		t.Fatal("const eval broken")
	}
	if (And{}).Eval(nil) != true {
		t.Fatal("empty AND should be true")
	}
	if (Or{}).Eval(nil) != false {
		t.Fatal("empty OR should be false")
	}
}

func TestString(t *testing.T) {
	e := paperFormula()
	if got := e.String(); got != "(p0 OR (p1 AND p2))" {
		t.Fatalf("String = %q", got)
	}
	if Const(true).String() != "T" || Const(false).String() != "F" {
		t.Fatal("const strings")
	}
}

func TestVars(t *testing.T) {
	e := Or{Leaf{3}, And{Leaf{1}, Leaf{3}, Const(true)}}
	got := Vars(e)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Vars = %v", got)
	}
	if len(Vars(Const(true))) != 0 {
		t.Fatal("const has no vars")
	}
}

func TestSimplify(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{And{Const(true), Leaf{0}}, "p0"},
		{And{Const(false), Leaf{0}}, "F"},
		{Or{Const(true), Leaf{0}}, "T"},
		{Or{Const(false), Leaf{0}}, "p0"},
		{And{And{Leaf{0}, Leaf{1}}, Leaf{2}}, "(p0 AND p1 AND p2)"},
		{Or{Or{Leaf{0}}, Leaf{1}}, "(p0 OR p1)"},
		{And{}, "T"},
		{Or{}, "F"},
		{And{Or{Const(false)}}, "F"},
	}
	for _, c := range cases {
		if got := Simplify(c.in).String(); got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	// Property: simplification never changes the function.
	f := func(bits uint8, shape uint8) bool {
		e := buildExpr(int(shape), 0)
		s := Simplify(e)
		assign := func(v int) bool { return bits&(1<<(v%8)) != 0 }
		return e.Eval(assign) == s.Eval(assign)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildExpr deterministically builds a small formula from a shape seed.
func buildExpr(shape, depth int) Expr {
	if depth > 2 {
		return Leaf{shape % 5}
	}
	switch shape % 4 {
	case 0:
		return Leaf{shape % 5}
	case 1:
		return Const(shape%2 == 0)
	case 2:
		return And{buildExpr(shape/2, depth+1), buildExpr(shape/3+1, depth+1)}
	default:
		return Or{buildExpr(shape/2, depth+1), buildExpr(shape/3+1, depth+1)}
	}
}

func TestDecomposePaperExample(t *testing.T) {
	// Paper: replacing the LIKE predicate (p2) with T reduces
	// (p0 OR (p1 AND p2)) to (p0 OR p1).
	sw, residual := Decompose(paperFormula(), func(v int) bool { return v != 2 })
	if got := sw.String(); got != "(p0 OR p1)" {
		t.Fatalf("switch formula = %s, want (p0 OR p1)", got)
	}
	if len(residual) != 1 || residual[0] != 2 {
		t.Fatalf("residual = %v", residual)
	}
}

func TestDecomposeAllSupported(t *testing.T) {
	sw, residual := Decompose(paperFormula(), func(int) bool { return true })
	if sw.String() != paperFormula().String() {
		t.Fatalf("formula changed: %s", sw)
	}
	if len(residual) != 0 {
		t.Fatalf("residual = %v", residual)
	}
}

func TestDecomposeNothingSupported(t *testing.T) {
	sw, residual := Decompose(paperFormula(), func(int) bool { return false })
	if c, ok := sw.(Const); !ok || !bool(c) {
		t.Fatalf("expected T, got %s", sw)
	}
	if len(residual) != 3 {
		t.Fatalf("residual = %v", residual)
	}
}

func TestDecomposeIsSafeOverapproximation(t *testing.T) {
	// Core safety property (monotone formulas): for every assignment, if
	// the original formula accepts, the decomposed formula accepts too —
	// i.e. the switch never prunes an entry the query wants.
	f := func(bits uint8, shape uint8, supportMask uint8) bool {
		e := buildExpr(int(shape), 0)
		supported := func(v int) bool { return supportMask&(1<<(v%8)) != 0 }
		sw, _ := Decompose(e, supported)
		assign := func(v int) bool { return bits&(1<<(v%8)) != 0 }
		if e.Eval(assign) && !sw.Eval(assign) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompileTruthTable(t *testing.T) {
	e := paperFormula()
	tt, err := Compile(e, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tt.NumVars() != 3 || tt.Entries() != 8 {
		t.Fatalf("dims: vars=%d entries=%d", tt.NumVars(), tt.Entries())
	}
	for idx := uint32(0); idx < 8; idx++ {
		want := e.Eval(func(v int) bool { return idx&(1<<v) != 0 })
		if got := tt.Lookup(idx); got != want {
			t.Errorf("Lookup(%03b) = %v, want %v", idx, got, want)
		}
	}
}

func TestCompileWithDontCares(t *testing.T) {
	// Extra variables in the ordering act as don't-cares.
	e := Expr(Leaf{0})
	tt, err := Compile(e, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Lookup(0b01) || !tt.Lookup(0b11) || tt.Lookup(0b00) || tt.Lookup(0b10) {
		t.Fatal("don't-care handling wrong")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(Leaf{9}, []int{0}); err == nil {
		t.Fatal("missing variable accepted")
	}
	if _, err := Compile(Leaf{0}, []int{0, 0}); err == nil {
		t.Fatal("duplicate variable accepted")
	}
	tooMany := make([]int, MaxTruthTableVars+1)
	for i := range tooMany {
		tooMany[i] = i
	}
	if _, err := Compile(Const(true), tooMany); err == nil {
		t.Fatal("oversized table accepted")
	}
	if _, err := Compile(Or{Leaf{0}, notExpr{Leaf{0}}}, []int{0}); err == nil {
		t.Fatal("foreign Expr type accepted")
	}
}

// notExpr is an Expr implementation outside the package's algebra.
type notExpr struct{ x Expr }

func (n notExpr) Eval(assign func(int) bool) bool { return !n.x.Eval(assign) }
func (n notExpr) String() string                  { return "NOT " + n.x.String() }

func TestCompileMatchesEvalProperty(t *testing.T) {
	f := func(shape uint8, idx uint16) bool {
		e := buildExpr(int(shape), 0)
		vars := []int{0, 1, 2, 3, 4}
		tt, err := Compile(e, vars)
		if err != nil {
			return false
		}
		i := uint32(idx) % uint32(tt.Entries())
		want := e.Eval(func(v int) bool { return i&(1<<v) != 0 })
		return tt.Lookup(i) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// 16 variables, the truth-table limit: variables at positions ≥ 6
	// span whole words, so every entry of random formulas over a
	// rotated ordering is checked against Eval.
	f16 := func(seed uint64) bool {
		e := randomExpr(&seed, 0, 16)
		vars := make([]int, 16)
		for i := range vars {
			vars[i] = (i*7 + int(seed%16)) % 16
		}
		return tableMatchesEval(t, e, vars)
	}
	if err := quick.Check(f16, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	if e, vars := formula16(); !tableMatchesEval(t, e, vars) {
		t.Fatal("formula16: truth table diverges from Eval")
	}
}

// tableMatchesEval compiles e over vars and checks every table entry
// against Eval.
func tableMatchesEval(t *testing.T, e Expr, vars []int) bool {
	t.Helper()
	tt, err := Compile(e, vars)
	if err != nil {
		t.Fatal(err)
	}
	bit := map[int]uint32{}
	for i, v := range vars {
		bit[v] = 1 << i
	}
	for idx := uint32(0); idx < uint32(tt.Entries()); idx++ {
		if tt.Lookup(idx) != e.Eval(func(v int) bool { return idx&bit[v] != 0 }) {
			return false
		}
	}
	return true
}

// randomExpr builds a random formula over variables [0, nvars) from a
// SplitMix-style stream.
func randomExpr(s *uint64, depth, nvars int) Expr {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if depth >= 4 || z%5 == 0 {
		if z%23 == 0 {
			return Const(z%2 == 0)
		}
		return Leaf{int(z>>8) % nvars}
	}
	kids := make([]Expr, 1+int(z>>16)%4)
	for i := range kids {
		kids[i] = randomExpr(s, depth+1, nvars)
	}
	if z%2 == 0 {
		return And(kids)
	}
	return Or(kids)
}

func TestTruthTableVarsAccessor(t *testing.T) {
	tt, _ := Compile(Leaf{2}, []int{2, 7})
	vs := tt.Vars()
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 7 {
		t.Fatalf("Vars = %v", vs)
	}
}

func BenchmarkTruthTableLookup(b *testing.B) {
	e := Or{Leaf{0}, And{Leaf{1}, Leaf{2}}, And{Leaf{3}, Or{Leaf{4}, Leaf{5}}}}
	tt, _ := Compile(e, []int{0, 1, 2, 3, 4, 5})
	b.ReportAllocs()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = tt.Lookup(uint32(i) & 63)
	}
	_ = sink
}

// formula16 is a 16-predicate formula of the shape a pruned FILTER
// compiles: an OR of ANDs over every variable, with constants folded in.
func formula16() (Expr, []int) {
	var or Or
	for v := 0; v < 16; v += 4 {
		or = append(or, And{Leaf{v}, Or{Leaf{v + 1}, Leaf{v + 2}}, Leaf{v + 3}, Const(true)})
	}
	vars := make([]int, 16)
	for i := range vars {
		vars[i] = i
	}
	return or, vars
}

func BenchmarkCompile16(b *testing.B) {
	e, vars := formula16()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(e, vars); err != nil {
			b.Fatal(err)
		}
	}
}
