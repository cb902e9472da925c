package core

import "fmt"

// Structured-logging support. Log sites go through Config's Observer
// and follow the same zero-cost discipline as telemetry: a nil Logger
// reduces every site to one untaken branch, and per-block Debug
// records are gated on the Debug level the encoder caches at reset,
// so a disabled level never pays for attribute construction.
// Attribute keys are lowercase_snake string constants; the
// structured-log tests pin them, so log consumers (and the README's
// documented fields) cannot drift.

// quartetClass renders a block geometry as the shell-quartet class
// string used in logs and artifacts, e.g. "36x36" for a (dd|dd) block.
func quartetClass(numSB, sbSize int) string {
	return fmt.Sprintf("%dx%d", numSB, sbSize)
}
