package fixtures

import (
	"math/rand"
	"time"
)

// Positives: nondeterminism inside functions reachable from the
// determinism roots (Compress* functions, StreamWriter
// methods).

// CompressStream is a root by name.
func CompressStream(blocks map[int][]byte) []byte {
	var out []byte
	for id, b := range blocks { // want "range over a map in CompressStream: iteration order is nondeterministic"
		_ = id
		out = append(out, b...)
	}
	shuffleHelper(out)
	return out
}

// shuffleHelper is only dangerous because CompressStream reaches it.
func shuffleHelper(b []byte) {
	rand.Shuffle(len(b), func(i, j int) { // want "rand.Shuffle in shuffleHelper \\(reachable via fixtures.CompressStream → fixtures.shuffleHelper\\)"
		b[i], b[j] = b[j], b[i]
	})
}

// StreamWriter mirrors the real sequencer type: every method
// is a root.
type StreamWriter struct {
	done chan int
	aux  chan int
}

func (w *StreamWriter) Flush() time.Time {
	select { // want "select with 2 communication clauses in Flush"
	case <-w.done:
	case <-w.aux:
	}
	stampHelper()
	return time.Now() // want "time.Now in Flush feeds an output path"
}

// stampHelper is dangerous because the Flush root reaches it.
func stampHelper() time.Duration {
	return time.Since(time.Time{}) // want "time.Since in stampHelper \\(reachable via fixtures.\\(\\*StreamWriter\\).Flush → fixtures.stampHelper\\)"
}

// Suppressed: telemetry timing on an output path, with justification.
func CompressTimed(data []byte) []byte {
	start := time.Now() //lint:detlint-ok telemetry only; the timestamp never reaches the encoder
	_ = start
	return data
}

// Clean: a map range in a function no root reaches.
func coldSummary(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Clean: single-case select with default (non-blocking poll) makes no
// cross-channel choice.
func (w *StreamWriter) poll() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// Clean: ranging a slice on an output path is ordered.
func CompressOrdered(blocks [][]byte) int {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	return n
}
