package fixtures

// Markers naming a registered analyzer, or hotalloc2's legacy alias,
// are fine; one naming no analyzer is reported.

func markers(a, b float64) bool {
	x := a == b   //lint:floatcmp-ok exact sentinel comparison
	_ = x         //lint:hotalloc-ok legacy spelling hotalloc2 still honors
	return a != b //lint:errcmp-ok no such analyzer // want "errcmp-ok names no analyzer"
}
