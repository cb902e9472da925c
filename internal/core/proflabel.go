package core

import (
	"context"
	"runtime/pprof"
)

// pprof "stage" label values for the pipeline's goroutine roles. The
// whole per-block compression runs inside the encode workers.
const (
	profStageEncode    = "encode"
	profStageSequencer = "sequencer"
)

// withStageLabel runs f under ctx's pprof label set plus a "stage"
// label, so CPU samples taken inside f carry tenant/route (inherited
// from the request context pastrid threads through Config.ProfileCtx)
// and the pipeline stage. With no profile context attached — every CLI
// and library path — f runs directly: no label map copy, no overhead.
func withStageLabel(ctx context.Context, stage string, f func()) {
	if ctx == nil {
		f()
		return
	}
	pprof.Do(ctx, pprof.Labels("stage", stage), func(context.Context) { f() }) //lint:hotalloc2-ok one closure per labeled region (per worker/stream), not per block
}
