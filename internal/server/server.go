// Package server implements pastrid, the PaSTRI network compression
// service: an HTTP daemon that accepts raw ERI block streams, compresses
// them through the deterministic parallel pipeline, persists them in the
// sharded block store, and serves random-access block reads through an
// LRU cache of hot decoded blocks.
//
// Wire protocol (all /v1 routes require an X-Pastri-Tenant header
// naming a configured tenant):
//
//	POST   /v1/streams?id=<id>          upload raw little-endian float64
//	                                    data (chunked bodies fine); the
//	                                    body length must be a multiple of
//	                                    the block size × 8. 201 on commit.
//	GET    /v1/streams                  list the tenant's streams.
//	GET    /v1/streams/{id}             stream metadata.
//	GET    /v1/streams/{id}/blocks/{n}  one decoded block, raw little-
//	                                    endian float64 payload.
//	DELETE /v1/streams/{id}             delete a stream.
//	GET    /metrics                     Prometheus text format.
//	GET    /debug/traces                retained traces, Chrome JSON.
//	GET    /debug/slo                   SLO burn-rate evaluation.
//	GET    /debug/history               the metrics history ring.
//	GET    /healthz                     liveness.
//	GET    /readyz                      readiness.
//
// Errors are JSON: {"error":{"code":"...","message":"..."}} with codes
// bad_request, unknown_tenant, not_found, exists, quota_exceeded,
// corrupt, internal. Uploads are compressed with the tenant's
// configured error bound by a core.StreamWriter, whose sequencer makes
// the stored bytes identical to a one-shot compression of the same data
// at any worker count — the property the integration battery checks end
// to end.
//
// Observability reports what the daemon measures. The middleware reads
// the clock once when a request arrives and once when it finishes; that
// one interval is the request's root span, its log line's duration_us,
// its route and tenant latency histograms and its slowest-1% rank.
// Every request on a /v1 route records spans, and tail retention keeps
// errors, the slowest 1% per route and a random baseline. The SLO
// objectives — read latency, upload latency and the 5xx error rate —
// count only events the daemon itself produces.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/trace"
	"repro/internal/telemetry/tsdb"
)

// Server is the pastrid daemon: store + cache + per-tenant collectors
// behind an HTTP mux. Create with New, serve with Serve or via
// Handler, stop with Shutdown.
type Server struct {
	cfg        Config
	st         *store.Store
	cache      *blockcache.Cache
	log        *slog.Logger
	collectors map[string]*telemetry.Collector // fixed at startup; read-only after New
	metrics    *serverMetrics
	tracer     *trace.Tracer
	mux        *http.ServeMux
	httpSrv    *http.Server

	// pastriobs: SLO engine + metrics history + profile ring (obs.go).
	sloEngine *slo.Engine
	history   *tsdb.Ring
	profiles  *profring.Ring
	lastSLO   atomic.Pointer[slo.Report]
	draining  atomic.Bool
	sampler   samplerHandle
}

// New opens the store and builds the daemon. logger may be nil for
// silent operation (tests).
func New(cfg Config, logger *slog.Logger) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	st, err := store.Open(store.Config{
		Dir:    cfg.StoreDir,
		Shards: cfg.Shards,
		Quotas: cfg.storeQuotas(),
	})
	if err != nil {
		return nil, err
	}
	engine := slo.New(cfg.sloEngineConfig())
	tenants := make(map[string]*tenantCounters, len(cfg.Tenants))
	for t := range cfg.Tenants {
		obj := engine.ObjectivesFor(t)
		tenants[t] = &tenantCounters{
			readSec:   obj.ReadP99MS / 1000,
			uploadSec: obj.UploadP99MS / 1000,
		}
	}
	profiles, err := profring.Open(cfg.profileConfig())
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		st:         st,
		cache:      blockcache.New(cfg.CacheBytes, cfg.cacheCaps()),
		log:        logger,
		collectors: make(map[string]*telemetry.Collector, len(cfg.Tenants)),
		metrics:    newServerMetrics(tenants),
		tracer:     trace.New(cfg.traceConfig()),
		sloEngine:  engine,
		history:    tsdb.NewRing(cfg.SLO.HistoryDepth),
		profiles:   profiles,
	}
	for _, t := range cfg.tenantNames() {
		s.collectors[t] = telemetry.New(-1) // counters only; no trace ring per tenant
	}
	if iv := cfg.sampleInterval(); iv > 0 {
		s.startSampler(iv)
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/streams", s.v1(routeUpload, s.handleUpload))
	s.mux.Handle("GET /v1/streams", s.v1(routeList, s.handleList))
	s.mux.Handle("GET /v1/streams/{id}", s.v1(routeStat, s.handleStat))
	s.mux.Handle("DELETE /v1/streams/{id}", s.v1(routeDelete, s.handleDelete))
	s.mux.Handle("GET /v1/streams/{id}/blocks/{n}", s.v1(routeReadBlock, s.handleReadBlock))
	s.mux.Handle("GET /metrics", s.instrument(routeMetrics, s.handleMetrics))
	s.mux.Handle("GET /debug/traces", s.instrument(routeTraces, s.handleTraces))
	s.mux.Handle("GET /debug/slo", s.instrument(routeSLO, s.handleSLO))
	s.mux.Handle("GET /debug/history", s.instrument(routeHistory, s.handleHistory))
	s.mux.Handle("GET /healthz", s.instrument(routeHealthz, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok"}`+"\n") //lint:errdrop-ok health probe write; the prober retries
	}))
	s.mux.Handle("GET /readyz", s.instrument(routeReadyz, s.handleReadyz))
	// Built here, not in ServeListener, so Shutdown never races the
	// serve goroutine's view of the field.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler, for serving it from an
// httptest.Server in tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve listens on cfg.Listen and blocks until Shutdown. The returned
// error is nil after a clean Shutdown.
func (s *Server) Serve() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Listen, err)
	}
	return s.ServeListener(ln)
}

// ServeListener serves on an existing listener (the daemon main uses
// Serve; tests that need an ephemeral port pass their own listener).
func (s *Server) ServeListener(ln net.Listener) error {
	s.log.Info("pastrid listening",
		"listen_addr", ln.Addr().String(),
		"tenants", len(s.cfg.Tenants),
		"store_dir", s.cfg.StoreDir)
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the daemon: the HTTP server stops accepting
// connections and drains in-flight requests — including uploads mid-
// compression — then the store's handles are closed. The context bounds
// the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true) // /readyz flips not-ready so balancers stop routing here
	s.stopSampler()
	var firstErr error
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		firstErr = err
	}
	if err := s.st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.log.Info("pastrid stopped", "cache_summary", s.cache.String())
	return firstErr
}

// Close releases resources without draining (tests).
func (s *Server) Close() error {
	s.stopSampler()
	return s.st.Close()
}

// WriteTraces writes the retained-trace ring as Chrome trace-event
// JSON — the same body GET /debug/traces serves (daemon shutdown dump
// and tests).
func (s *Server) WriteTraces(w io.Writer) error { return trace.WriteChrome(w, s.tracer.Ring()) }

// apiError is the wire error shape.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError maps an internal error onto a status code and wire code.
func httpError(err error) (int, string) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, store.ErrExists):
		return http.StatusConflict, "exists"
	case errors.Is(err, store.ErrQuota):
		return http.StatusRequestEntityTooLarge, "quota_exceeded"
	case errors.Is(err, store.ErrCorrupt):
		return http.StatusInternalServerError, "corrupt"
	case errors.Is(err, store.ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError emits the JSON error shape.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{
		"error": {Code: code, Message: msg},
	})
}

// writeStoreError maps and emits an internal error.
func writeStoreError(w http.ResponseWriter, err error) {
	status, code := httpError(err)
	writeError(w, status, code, err.Error())
}

// tenantHandler is a handler that has already passed tenant auth.
type tenantHandler func(w http.ResponseWriter, r *http.Request, tenant string)

// v1 wraps an API handler with tenant resolution and instrumentation.
func (s *Server) v1(route string, h tenantHandler) http.Handler {
	return s.instrument(route, func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-Pastri-Tenant")
		if tenant == "" {
			writeError(w, http.StatusBadRequest, "bad_request", "missing X-Pastri-Tenant header")
			return
		}
		if _, ok := s.cfg.Tenants[tenant]; !ok {
			writeError(w, http.StatusForbidden, "unknown_tenant",
				fmt.Sprintf("tenant %q is not configured", tenant))
			return
		}
		h(w, r, tenant)
	})
}

// statusWriter captures the response status for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// spanCtxKey carries the request's root span through the handler
// chain so deep layers (compress, cache, store) can hang children off
// it without threading a parameter through every signature.
type spanCtxKey struct{}

// spanFrom returns the request's root span, or nil for untraced
// routes — every trace.Span method is nil-safe, so callers use the
// result unconditionally.
func spanFrom(r *http.Request) *trace.Span {
	sp, _ := r.Context().Value(spanCtxKey{}).(*trace.Span)
	return sp
}

// instrument wraps a handler with request logging, metrics, the
// request's root trace span, and pprof goroutine labels. Quiet routes
// (scrapes, probes, debug exports) are never traced or labeled — a
// scraper polling /debug/traces must not push real traces out of the
// ring, and probe CPU must not pollute tenant attribution. The clock is
// read once at entry and once at exit: the root span, the route and
// tenant histograms, the slowest-1% rank and the request log all see
// that one interval. A traced request in its route's slowest 1% so far
// is kept for latency.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	traced := !quietRoute(route)
	rh := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		tenant := r.Header.Get("X-Pastri-Tenant")
		var root *trace.Span
		if traced {
			root = s.tracer.StartRequest(route, tenant, r.Header.Get("Traceparent"), start)
			// Echo the (possibly newly minted) trace context so clients
			// can correlate their own records with ours.
			w.Header().Set("Traceparent", root.Traceparent())
			r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, root))
		}
		s.metrics.inflight.Add(1)
		if traced {
			// Goroutine labels are what the CPU profiler samples: every
			// profile in the ring can be cut by tenant and route, and
			// stage labels added deeper (compress workers, decode fills)
			// inherit these.
			labels := pprof.Labels("route", route, "tenant", tenant)
			pprof.Do(r.Context(), labels, func(ctx context.Context) {
				h(sw, r.WithContext(ctx))
			})
		} else {
			h(sw, r)
		}
		s.metrics.inflight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		var traceID, spanID string
		retained := false
		if root != nil {
			traceID, spanID = root.TraceID(), root.SpanID()
			root.AnnotateInt("http_status", int64(sw.status))
			root.AnnotateInt("resp_bytes", sw.bytes)
			if sw.status >= 500 {
				root.SetError(fmt.Errorf("http status %d", sw.status))
			}
			slow := rh.hist.InSlowest1Pct(uint64(elapsed))
			retained, _ = s.tracer.FinishRequest(root, elapsed, slow)
		}
		s.metrics.observe(rh, route, tenant, sw.status, elapsed, traceID, retained)
		if quietRoute(route) {
			return // scrapes and probes would drown the request log
		}
		s.log.Info("request",
			"http_method", r.Method,
			"http_route", route,
			"http_status", sw.status,
			"tenant", tenant,
			"stream_id", r.PathValue("id"),
			"trace_id", traceID,
			"span_id", spanID,
			"duration_us", elapsed.Microseconds(),
			"resp_bytes", sw.bytes)
	})
}

// handleUpload streams the request body — raw little-endian float64
// blocks — through the parallel compressor into the store. The stored
// bytes are identical to what a serial compression would produce.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.URL.Query().Get("id")
	if !store.ValidName(id) {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("invalid or missing stream id %q", id))
		return
	}
	cfg := core.Defaults(s.cfg.NumSB, s.cfg.SBSize, s.cfg.errorBound(tenant))
	cfg.Workers = s.cfg.Workers
	cfg.Collector = s.collectors[tenant]
	// The request context carries the tenant/route pprof labels set by
	// instrument; handing it to the pipeline lets the compress workers
	// add their stage label on top, so CPU profiles attribute encode
	// time to the uploading tenant.
	cfg.ProfileCtx = r.Context()

	sw, err := s.st.Create(tenant, id)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	root := spanFrom(r)
	sw.SetTrace(root) // store.commit/fsync spans hang off the request root
	csp := root.StartChild("compress")
	cfg.Trace = csp // per-stage pipeline spans hang off compress
	psw, err := core.NewStreamWriter(sw, cfg)
	if err != nil {
		csp.End()
		sw.Abort()
		writeStoreError(w, err)
		return
	}

	blockBytes := cfg.BlockSize() * 8
	buf := make([]byte, blockBytes)
	block := make([]float64, cfg.BlockSize())
	var rawBytes int64
	blocks := 0
	for {
		n, rerr := io.ReadFull(r.Body, buf)
		if rerr == io.EOF {
			break
		}
		if rerr == io.ErrUnexpectedEOF {
			psw.Close() //lint:errdrop-ok stream is being discarded; Abort below removes it
			csp.End()
			sw.Abort()
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("body truncated mid-block: %d trailing bytes, block size is %d bytes", n, blockBytes))
			return
		}
		if rerr != nil {
			psw.Close() //lint:errdrop-ok stream is being discarded; Abort below removes it
			csp.End()
			sw.Abort()
			writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+rerr.Error())
			return
		}
		for i := range block {
			block[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		rawBytes += int64(n)
		blocks++
		if err := psw.WriteBlock(block); err != nil {
			psw.Close() //lint:errdrop-ok first error already captured in err
			csp.SetError(err)
			csp.End()
			sw.Abort()
			writeStoreError(w, err)
			return
		}
	}
	if err := psw.Close(); err != nil {
		csp.SetError(err)
		csp.End()
		sw.Abort()
		writeStoreError(w, err)
		return
	}
	csp.AnnotateInt("blocks", int64(blocks))
	csp.End()
	if blocks == 0 {
		sw.Abort()
		writeError(w, http.StatusBadRequest, "bad_request", "empty body: at least one block is required")
		return
	}
	storedBytes := sw.Bytes()
	if err := sw.Commit(); err != nil {
		writeStoreError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{
		"id":           id,
		"blocks":       blocks,
		"block_size":   cfg.BlockSize(),
		"raw_bytes":    rawBytes,
		"stored_bytes": storedBytes,
	})
}

// handleReadBlock serves one decoded block through the cache.
func (s *Server) handleReadBlock(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	if !store.ValidName(id) {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("invalid stream id %q", id))
		return
	}
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("invalid block number %q", r.PathValue("n")))
		return
	}
	lsp := spanFrom(r).StartChild("cache.lookup")
	data, err := s.cache.GetOrFill(blockcache.Key{Tenant: tenant, Stream: id, Block: n}, lsp,
		func(fsp *trace.Span) ([]float64, error) {
			var dst []float64
			var fillErr error
			// Label the decode fill so CPU profiles split read-path time
			// into stage=decode under the request's tenant/route labels,
			// and time it on the tenant's decode stage so the history
			// ring's stage_ns series attribute read-path burn. The
			// observer carries no span: the store records the fill's
			// read_at and decode spans under fsp itself.
			obs := telemetry.Observer{Collector: s.collectors[tenant], ProfileCtx: r.Context()}
			obs.Do(telemetry.StageDecode.String(), func() {
				defer obs.Stage(telemetry.StageDecode).End()
				var seg *store.Segment
				seg, fillErr = s.st.Get(tenant, id)
				if fillErr != nil {
					return
				}
				dst = make([]float64, seg.BlockSize())
				if fillErr = seg.ReadBlock(n, dst, fsp); fillErr != nil {
					return
				}
				obs.Collector.RecordDecodedBlock(seg.CompressedBlockBytes(n), len(dst)*8)
			})
			if fillErr != nil {
				return nil, fillErr
			}
			return dst, nil
		})
	lsp.End()
	if err != nil {
		writeStoreError(w, err)
		return
	}
	out := make([]byte, len(data)*8)
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Pastri-Block-Values", strconv.Itoa(len(data)))
	w.Write(out)
}

// handleStat returns one stream's metadata.
func (s *Server) handleStat(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	if !store.ValidName(id) {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("invalid stream id %q", id))
		return
	}
	seg, err := s.st.Get(tenant, id)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	cfg := seg.Config()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"id":            id,
		"blocks":        seg.NumBlocks(),
		"block_size":    seg.BlockSize(),
		"num_sb":        cfg.NumSB,
		"sb_size":       cfg.SBSize,
		"error_bound":   cfg.ErrorBound,
		"segment_bytes": seg.SegmentBytes(),
	})
}

// handleList returns the tenant's streams.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, tenant string) {
	stats, err := s.st.List(tenant)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	type streamJSON struct {
		ID           string `json:"id"`
		SegmentBytes int64  `json:"segment_bytes"`
		IndexBytes   int64  `json:"index_bytes"`
	}
	out := struct {
		Streams []streamJSON `json:"streams"`
	}{Streams: make([]streamJSON, 0, len(stats))}
	for _, st := range stats {
		out.Streams = append(out.Streams, streamJSON{st.ID, st.SegmentBytes, st.IndexBytes})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleDelete removes a stream and its cached blocks.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	id := r.PathValue("id")
	if !store.ValidName(id) {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("invalid stream id %q", id))
		return
	}
	if err := s.st.Delete(tenant, id); err != nil {
		writeStoreError(w, err)
		return
	}
	s.cache.InvalidateStream(tenant, id)
	w.WriteHeader(http.StatusNoContent)
}
