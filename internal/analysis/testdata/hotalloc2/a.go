package fixtures

// Positives: allocation shapes inside functions that are hot either by
// direct //pastri:hotpath marking or by call-graph reachability.

// encodeHot is a fake block kernel.
//
//pastri:hotpath
func encodeHot(n int) []float64 {
	buf := make([]float64, n) // want "make in hot function encodeHot allocates on every call"
	return buf
}

//pastri:hotpath
func appendFreshLiteral(v byte) []byte {
	return append([]byte{}, v) // want "append into a fresh slice in hot function appendFreshLiteral"
}

//pastri:hotpath
func appendFreshConversion(src []byte) []byte {
	return append([]byte(nil), src...) // want "append into a fresh slice in hot function appendFreshConversion"
}

//pastri:hotpath
func appendIntoOther(dst []int64, v int64) []int64 {
	out := append(dst, v) // want "append result in hot function appendIntoOther does not feed back"
	return out
}

// Interprocedural: kernel is marked, the allocation sits two calls
// down in helperTwo — the case the first-generation analyzer missed.
//
//pastri:hotpath
func kernel(n int) int {
	return helperOne(n)
}

func helperOne(n int) int {
	return len(helperTwo(n))
}

func helperTwo(n int) []byte {
	return make([]byte, n) // want "make in hot function helperTwo \\(hot via fixtures.kernel → fixtures.helperOne → fixtures.helperTwo\\)"
}

// Closure capture: constructing the literal allocates per call.
//
//pastri:hotpath
func closureCapture(n int) func() int {
	f := func() int { return n } // want "function literal captures n in hot function closureCapture"
	return f
}

// Interface boxing at a call argument and via explicit conversion.

func sink(v any) { _ = v }

//pastri:hotpath
func boxesArg(x int) {
	sink(x) // want "argument converts int to interface any in hot function boxesArg"
}

//pastri:hotpath
func boxesExplicit(x float64) any {
	v := any(x) // want "conversion of float64 to interface any in hot function boxesExplicit"
	return v
}

// String concatenation.

//pastri:hotpath
func concat(a, b string) string {
	s := a + b // want "string concatenation in hot function concat allocates"
	return s
}

//pastri:hotpath
func concatAssign(parts []string) string {
	s := ""
	for _, p := range parts {
		s += p // want "string \\+= in hot function concatAssign allocates"
	}
	return s
}

// CFG may-analysis: appending onto a slice still nil from its local
// declaration allocates the backing array per call, even though the
// append is textually in-place.
//
//pastri:hotpath
func nilAppend(vs []int) []int {
	var out []int
	for _, v := range vs {
		out = append(out, v) // want "append onto out, which is still the locally-declared nil slice"
	}
	return out
}

// Clean: the in-place grow-and-reuse idiom on caller-owned scratch.

//pastri:hotpath
func appendInPlace(dst []float64, block []float64) []float64 {
	for _, x := range block {
		dst = append(dst, x*2)
	}
	return dst
}

// Clean: the pooled-buffer idiom — slicing and parens on the
// destination still count as feeding back in place.
//
//pastri:hotpath
func pooledBuffer(p *[]byte, payload []byte) {
	*p = append((*p)[:0], payload...)
}

// Clean: a slice assigned from the caller's world is not locally nil.

//pastri:hotpath
func callerBacked(scratch []int, v int) []int {
	out := scratch[:0]
	out = append(out, v)
	return out
}

// Clean: boxing and concatenation on return/panic paths run at most
// once per call — the classic error-exit shapes are not hot-loop costs.

//pastri:hotpath
func coldExitError(n int) (int, error) {
	if n < 0 {
		return 0, errorf("fixtures: bad n %d", n)
	}
	return n, nil
}

//pastri:hotpath
func coldExitPanic(n int) int {
	if n < 0 {
		panic("fixtures: bad n " + itoa(n))
	}
	return n
}

func errorf(format string, args ...any) error { return nil }
func itoa(int) string                         { return "" }

// Clean: pointer-shaped values fit the interface data word, so the
// conversion does not allocate.

//pastri:hotpath
func boxesPointer(p *int, m map[string]int) {
	sink(p)
	sink(m)
}

// Suppressed: deliberate per-call (not per-block) allocation.

//pastri:hotpath
func annotatedSetup(nblocks int) [][]byte {
	payloads := make([][]byte, nblocks) //lint:hotalloc2-ok one slice per call, not per block
	return payloads
}

// Clean: cold functions allocate freely.

func coldPath(n int) []float64 {
	buf := make([]float64, n)
	s := "x" + "y" // constant-folded, and cold anyway
	_ = s
	return append(buf[:0], 1.5)
}

// Clean: a doc comment that merely mentions the marker in prose (not on
// a line of its own) does not mark the function hot.

// notHot explains that callers on a pastri:hotpath should pre-size dst.
func notHot(n int) []int {
	return make([]int, n)
}
