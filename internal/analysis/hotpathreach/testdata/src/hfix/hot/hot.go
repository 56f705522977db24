// Fixture: allocation-causing constructs inside //hetpnoc:hotpath
// functions are flagged; amortized reuse, cold error paths and
// unannotated functions no root reaches are not.
package hot

import "fmt"

type Engine struct {
	buf []int
	cb  func(int)
}

//hetpnoc:hotpath
func (e *Engine) Step(xs []int) error {
	e.buf = append(e.buf[:0], xs...) // amortized reuse: allowed
	e.buf = append(e.buf, len(xs))   // still the same backing slice
	if len(xs) > 1<<20 {
		return fmt.Errorf("overflow: %d flits", len(xs)) // cold error path: allowed
	}
	return nil
}

//hetpnoc:hotpath
func (e *Engine) Leaky(n int, xs []int) string {
	tmp := append(xs, n) // want `append result is not reassigned to the slice it extends`
	_ = tmp
	msg := fmt.Sprintf("n=%d", n) // want `fmt.Sprintf formats \(and boxes its operands\) on a hot path`
	msg += "!"                    // want `string concatenation allocates in a hot-path function`
	f := func() int { return n * 2 } // want `closure literal captures n and allocates`
	_ = f()
	return msg + itoa(n) // want `string concatenation allocates in a hot-path function`
}

//hetpnoc:hotpath
func (e *Engine) Boxing(n int) any {
	var v any = n // want `conversion of int to interface any allocates \(boxing\)`
	_ = v
	sink(n)  // want `conversion of int to interface interface\{\} allocates \(boxing\)`
	sink(&n) // pointers fit the interface word: allowed
	var w any
	w = n // want `conversion of int to interface any allocates \(boxing\)`
	_ = w
	return n // want `conversion of int to interface any allocates \(boxing\)`
}

//hetpnoc:hotpath
func (e *Engine) StaticClosure() {
	g := func(a int) int { return a + 1 } // captures nothing: allowed
	_ = g(1)
	if e.cb != nil {
		e.cb(2) // calling a hoisted closure field: allowed
	}
}

// Unannotated functions may allocate freely.
func Unchecked(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "x"
	}
	return fmt.Sprintf("%s!", s)
}

func sink(v interface{}) { _ = v }

// itoa is unannotated but reached from Leaky.
func itoa(n int) string { return fmt.Sprint(n) } // want `fmt\.Sprint formats \(and boxes its operands\) on a hot path \(hot path: hot\.Engine\.Leaky -> hot\.itoa\)`
