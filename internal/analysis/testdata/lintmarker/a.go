package fixtures

// Markers naming a registered analyzer are fine; one naming no
// analyzer, such as the retired first-generation hotalloc, is reported.

func markers(a, b float64) bool {
	x := a == b   //lint:floatcmp-ok exact sentinel comparison
	_ = x         //lint:hotalloc-ok retired analyzer // want "hotalloc-ok names no analyzer"
	return a != b //lint:errcmp-ok no such analyzer // want "errcmp-ok names no analyzer"
}
