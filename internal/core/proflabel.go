package core

// pprof "stage" label values for the pipeline's goroutine roles,
// applied through Observer.Do on top of the request labels pastrid
// threads through Config.ProfileCtx. The whole per-block compression
// runs inside the encode workers.
const (
	profStageEncode    = "encode"
	profStageSequencer = "sequencer"
)
