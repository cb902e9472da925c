package fixtures

// Markers naming a registered analyzer are fine; one naming no
// analyzer, such as the retired hotalloc and floatcmp, is reported.

func markers(a uint64, b uint) bool {
	x := a << b   //lint:shiftwidth-ok b < 64 by the caller's contract
	_ = x         //lint:hotalloc-ok retired analyzer // want "hotalloc-ok names no analyzer"
	_ = x == a    //lint:floatcmp-ok retired analyzer // want "floatcmp-ok names no analyzer"
	return x != a //lint:errcmp-ok no such analyzer // want "errcmp-ok names no analyzer"
}
