package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// factsAt interprets src (a package with one function F), running a toy
// must-analysis over F's body: lock() adds fact L, unlock() removes it,
// and probe("name") records the facts holding when control reaches it.
// The result maps probe names to sorted fact lists — nil when the probe
// is unreachable.
func factsAt(t *testing.T, src string) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "F" {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatal("no function F in source")
	}

	call := func(n ast.Node) (string, string) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return "", ""
		}
		c, ok := es.X.(*ast.CallExpr)
		if !ok {
			return "", ""
		}
		id, ok := c.Fun.(*ast.Ident)
		if !ok {
			return "", ""
		}
		arg := ""
		if len(c.Args) == 1 {
			if lit, ok := c.Args[0].(*ast.BasicLit); ok {
				arg, _ = strconv.Unquote(lit.Value)
			}
		}
		return id.Name, arg
	}
	transfer := func(n ast.Node, facts FactSet) {
		switch name, _ := call(n); name {
		case "lock":
			facts.Add("L")
		case "unlock":
			facts.Remove("L")
		}
	}

	g := New(body)
	in := g.ForwardMust(NewFactSet(), transfer)
	probes := make(map[string][]string)
	for _, b := range g.Blocks {
		entry, reachable := in[b]
		if !reachable {
			continue
		}
		facts := entry.Clone()
		for _, n := range b.Nodes {
			if name, arg := call(n); name == "probe" {
				probes[arg] = append([]string{}, facts.Sorted()...)
			}
			transfer(n, facts)
		}
	}
	return probes
}

func expect(t *testing.T, probes map[string][]string, name, want string) {
	t.Helper()
	got, ok := probes[name]
	if !ok {
		t.Errorf("probe %q never reached", name)
		return
	}
	if s := strings.Join(got, ","); s != want {
		t.Errorf("probe %q: facts = %q, want %q", name, s, want)
	}
}

func TestStraightLineAndBranchJoin(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
	lock()
	probe("held")
	if c {
		unlock()
		probe("branch")
	}
	probe("join")
}`)
	expect(t, probes, "held", "L")
	expect(t, probes, "branch", "")
	expect(t, probes, "join", "") // unlocked on one path: must-facts drop L
}

func TestEarlyReturnKeepsFact(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
	lock()
	if c {
		unlock()
		return
	}
	probe("held")
}`)
	// The unlocking path returned; every path reaching the probe holds L.
	expect(t, probes, "held", "L")
}

func TestPanicEndsPath(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
	lock()
	if c {
		unlock()
		panic("bad")
	}
	probe("held")
}`)
	expect(t, probes, "held", "L")
}

func TestLoopBackEdge(t *testing.T) {
	probes := factsAt(t, `package p
func F() {
	lock()
	for i := 0; i < 9; i++ {
		probe("top")
		unlock()
	}
}`)
	// Iteration 2 reaches the loop top without the lock; must-facts are
	// the intersection over the back edge.
	expect(t, probes, "top", "")
}

func TestLoopRelock(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
	for c {
		lock()
		probe("in")
		unlock()
	}
	probe("after")
}`)
	expect(t, probes, "in", "L")
	expect(t, probes, "after", "")
}

func TestRangeBody(t *testing.T) {
	probes := factsAt(t, `package p
func F(m []int) {
	lock()
	for range m {
		probe("body")
	}
	probe("after")
	for range m {
		unlock()
	}
	probe("end")
}`)
	expect(t, probes, "body", "L")
	expect(t, probes, "after", "L")
	expect(t, probes, "end", "") // the range may have iterated and unlocked
}

func TestSwitchFallthrough(t *testing.T) {
	probes := factsAt(t, `package p
func F(x int) {
	lock()
	switch x {
	case 1:
		unlock()
		fallthrough
	case 2:
		probe("ft")
	case 3:
		probe("l")
	}
	probe("after")
}`)
	expect(t, probes, "ft", "") // reachable locked (case 2) and unlocked (fallthrough)
	expect(t, probes, "l", "L")
	expect(t, probes, "after", "")
}

func TestSwitchWithDefaultAllUnlock(t *testing.T) {
	probes := factsAt(t, `package p
func F(x int) {
	lock()
	switch x {
	case 1:
		unlock()
	default:
		unlock()
	}
	probe("after")
}`)
	// With a default clause there is no locked fall-past path.
	expect(t, probes, "after", "")
}

func TestSelectClauses(t *testing.T) {
	probes := factsAt(t, `package p
func F(a, b chan int) {
	lock()
	select {
	case <-a:
		unlock()
	case <-b:
		probe("clause")
	}
	probe("after")
}`)
	expect(t, probes, "clause", "L")
	expect(t, probes, "after", "")
}

func TestLabeledBreak(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
	lock()
loop:
	for {
		for {
			break loop
		}
	}
	probe("after")
}`)
	// The only exit is `break loop` with the lock held.
	expect(t, probes, "after", "L")
}

func TestLabeledContinueSkipsUnlock(t *testing.T) {
	probes := factsAt(t, `package p
func F(c bool) {
outer:
	for {
		lock()
		if c {
			continue outer
		}
		unlock()
		probe("bottom")
	}
}`)
	// continue outer re-enters the loop head with L held, the normal
	// path with L released — head facts intersect to nothing, but the
	// bottom probe always follows its own unlock.
	expect(t, probes, "bottom", "")
}

func TestGotoSkipsUnreachableUnlock(t *testing.T) {
	probes := factsAt(t, `package p
func F() {
	lock()
	goto done
	unlock()
done:
	probe("g")
}`)
	expect(t, probes, "g", "L")
}

func TestGotoIntoLoopBody(t *testing.T) {
	// The spec forbids jumping into a block, but the builder must stay
	// structurally sound on such input (it only sees a parse tree, never
	// a type-checked one). The goto enters the loop mid-body with L
	// held; the loop-around path re-reaches the label after unlocking,
	// so the must-facts at the label intersect to nothing.
	probes := factsAt(t, `package p
func F(c bool) {
	lock()
	goto mid
	for {
		unlock()
	mid:
		probe("mid")
		if c {
			return
		}
	}
}`)
	expect(t, probes, "mid", "")
}

func TestSelectNoDefaultHasNoFallPast(t *testing.T) {
	// A select with no default blocks until a clause fires: unlike a
	// switch, there is no edge that skips every clause. If the builder
	// wrongly added a fall-past edge, the un-locked path would drop L
	// from the join.
	probes := factsAt(t, `package p
func F(a chan int) {
	select {
	case <-a:
		lock()
	}
	probe("after")
}`)
	expect(t, probes, "after", "L")
}

func TestLabeledSwitchFallthroughAdjacency(t *testing.T) {
	// A labeled switch whose fallthrough-adjacent clause exits via
	// `break sw`: case 2 is reachable both locked (direct dispatch) and
	// unlocked (fallthrough from case 1), while case 3 stays locked and
	// the join sees the intersection of all three exits.
	probes := factsAt(t, `package p
func F(x int) {
	lock()
sw:
	switch x {
	case 1:
		unlock()
		fallthrough
	case 2:
		probe("ft")
		break sw
	case 3:
		probe("three")
	}
	probe("after")
}`)
	expect(t, probes, "ft", "")
	expect(t, probes, "three", "L")
	expect(t, probes, "after", "")
}

func TestSinglePanicBody(t *testing.T) {
	// A body that is nothing but a panic has no normal exit: the graph
	// still builds, and nothing downstream of the panic is reachable.
	probes := factsAt(t, `package p
func F() {
	panic("always")
}`)
	if len(probes) != 0 {
		t.Errorf("probes = %v, want none", probes)
	}

	probes = factsAt(t, `package p
func F() {
	lock()
	panic("always")
	probe("dead")
}`)
	if _, ok := probes["dead"]; ok {
		t.Error("probe after an unconditional panic should be unreachable")
	}
}

func TestDeferredNodeIsNotExecutedInline(t *testing.T) {
	probes := factsAt(t, `package p
func F() {
	lock()
	defer unlock()
	probe("d")
}`)
	// The transfer only interprets plain call statements; the deferred
	// unlock stays wrapped in its DeferStmt and does not kill the fact —
	// exactly the Lock/defer-Unlock idiom lockguard must accept.
	expect(t, probes, "d", "L")
}

func TestUnreachableProbeNotRecorded(t *testing.T) {
	probes := factsAt(t, `package p
func F() {
	return
	probe("dead")
}`)
	if _, ok := probes["dead"]; ok {
		t.Error("probe after return should be unreachable")
	}
}

// mayFactsAt is factsAt under the may-lattice: the same toy
// lock/unlock/probe vocabulary run through ForwardMay, so a probe
// reports L whenever ANY path reaches it locked.
func mayFactsAt(t *testing.T, src string) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "F" {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatal("no function F in source")
	}

	call := func(n ast.Node) (string, string) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return "", ""
		}
		c, ok := es.X.(*ast.CallExpr)
		if !ok {
			return "", ""
		}
		id, ok := c.Fun.(*ast.Ident)
		if !ok {
			return "", ""
		}
		arg := ""
		if len(c.Args) == 1 {
			if lit, ok := c.Args[0].(*ast.BasicLit); ok {
				arg, _ = strconv.Unquote(lit.Value)
			}
		}
		return id.Name, arg
	}
	transfer := func(n ast.Node, facts FactSet) {
		switch name, _ := call(n); name {
		case "lock":
			facts.Add("L")
		case "unlock":
			facts.Remove("L")
		}
	}

	g := New(body)
	in := g.ForwardMay(NewFactSet(), transfer)
	probes := make(map[string][]string)
	for _, b := range g.Blocks {
		entry, reachable := in[b]
		if !reachable {
			continue
		}
		facts := entry.Clone()
		for _, n := range b.Nodes {
			if name, arg := call(n); name == "probe" {
				probes[arg] = append([]string{}, facts.Sorted()...)
			}
			transfer(n, facts)
		}
	}
	return probes
}

func TestMayBranchJoinKeepsFact(t *testing.T) {
	probes := mayFactsAt(t, `package p
func F(c bool) {
	if c {
		lock()
	}
	probe("join")
}`)
	// One path reaches the join locked: the may-union keeps L where the
	// must-intersection (TestStraightLineAndBranchJoin) drops it.
	expect(t, probes, "join", "L")
}

func TestMayKillOnEveryPathClearsFact(t *testing.T) {
	probes := mayFactsAt(t, `package p
func F(c bool) {
	lock()
	if c {
		unlock()
	} else {
		unlock()
	}
	probe("join")
}`)
	expect(t, probes, "join", "")
}

func TestMayLoopBackEdgePropagates(t *testing.T) {
	probes := mayFactsAt(t, `package p
func F(n int) {
	for i := 0; i < n; i++ {
		probe("top")
		lock()
	}
	probe("after")
}`)
	// Iteration 2 reaches the loop top locked via the back edge, and the
	// loop exit may fire after an iteration that locked.
	expect(t, probes, "top", "L")
	expect(t, probes, "after", "L")
}

func TestMayEarlyReturnPathDoesNotLeak(t *testing.T) {
	probes := mayFactsAt(t, `package p
func F(c bool) {
	if c {
		lock()
		return
	}
	probe("tail")
}`)
	// The locking path returned; no surviving path carries L.
	expect(t, probes, "tail", "")
}

func TestGraphStringSmoke(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", `package p
func F(c bool) { if c { x() } }`, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	g := New(f.Decls[0].(*ast.FuncDecl).Body)
	s := g.String()
	if !strings.Contains(s, "b0:") || !strings.Contains(s, "->") {
		t.Errorf("unexpected String() output:\n%s", s)
	}
}

func TestSelectSendAndRecvClauses(t *testing.T) {
	probes := factsAt(t, `package p
func F(a, b chan int) {
	lock()
	select {
	case a <- 1:
		probe("send")
	case v := <-b:
		_ = v
		unlock()
		probe("recv")
	}
	probe("after")
}`)
	expect(t, probes, "send", "L")
	expect(t, probes, "recv", "")
	// Must-analysis: only the send path still holds the lock, so the
	// join keeps nothing.
	expect(t, probes, "after", "")
}

func TestGoLiteralBodyIsNotInline(t *testing.T) {
	probes := factsAt(t, `package p
func F() {
	lock()
	go func() {
		unlock()
		probe("inside")
	}()
	probe("after")
}`)
	// The spawned literal runs at an unknown time: its unlock must not
	// kill the spawner's fact, and its probe is not part of this graph.
	expect(t, probes, "after", "L")
	if _, ok := probes["inside"]; ok {
		t.Errorf("probe inside a go literal must not be reached by the enclosing graph")
	}
}

func TestDeferredKillInSpawnLoop(t *testing.T) {
	// The spawn-loop shape: a deferred kill (defer wg.Done / defer unlock)
	// must not consume the fact on the loop path or at the join point.
	probes := factsAt(t, `package p
func F(n int) {
	lock()
	defer unlock()
	for i := 0; i < n; i++ {
		probe("spawn")
	}
	probe("wait")
}`)
	expect(t, probes, "spawn", "L")
	expect(t, probes, "wait", "L")
}
