package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry/profring"
	"repro/internal/telemetry/slo"
	"repro/internal/telemetry/tsdb"
)

// obs.go is pastrid's self-observation loop: a background sampler that
// snapshots every counter into the metrics history ring, evaluates the
// SLO burn-rate engine against it, and force-captures a CPU profile
// when an objective enters fast burn — plus the /debug/slo,
// /debug/history and /readyz handlers that expose the results.

// samplerHandle owns the background sampler goroutine's lifecycle.
// The zero value is a never-started sampler; stopSampler is then a
// no-op, so tests that build a Server without a sampler need no
// special teardown.
type samplerHandle struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startSampler launches the history/SLO sampler at the given period.
// Called once from New; the goroutine exits on stopSampler. The ring
// is seeded with a sample taken before the ticker starts, so a young
// ring's windows are deltas from start-up and count every event served
// before the first tick.
func (s *Server) startSampler(interval time.Duration) {
	s.sampler.stop = make(chan struct{})
	s.sampler.done = make(chan struct{})
	s.history.Add(s.captureSample(time.Now()))
	go func() {
		defer close(s.sampler.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		// Each tenant's previous SLO state, carried across ticks so
		// profile captures fire only on transitions into fast burn.
		prevStates := make(map[string]slo.State)
		for {
			select {
			case <-s.sampler.stop:
				return
			case now := <-tick.C:
				s.sampleTick(now, prevStates)
			}
		}
	}()
}

// stopSampler stops the sampler goroutine and waits for it to exit.
// Safe to call multiple times and on a server that never started one.
func (s *Server) stopSampler() {
	if s.sampler.stop == nil {
		return
	}
	s.sampler.once.Do(func() {
		close(s.sampler.stop)
		<-s.sampler.done
	})
}

// sampleTick is one sampler iteration: capture a sample into the
// history ring, re-evaluate the SLOs, and react — a tenant whose state
// transitions into fast burn triggers a background CPU capture tagged
// with the tenant and the most recent retained trace. Finally the
// profile ring gets its periodic tick.
func (s *Server) sampleTick(now time.Time, prevStates map[string]slo.State) {
	sample := s.captureSample(now)
	s.history.Add(sample)
	rep := s.sloEngine.Evaluate(sample, s.history, s.metrics.tenantQuantiles())
	s.lastSLO.Store(rep)

	for _, tenant := range rep.TenantNames() {
		tr := rep.Tenants[tenant]
		was := prevStates[tenant]
		prevStates[tenant] = tr.State
		if tr.State == slo.StateFastBurn && was != slo.StateFastBurn {
			s.log.Warn("slo fast burn",
				"tenant", tenant,
				"objectives", burningObjectives(tr))
			// CaptureCPU blocks for the sampling window; run it off the
			// sampler loop so ticks keep their cadence.
			go s.forceBurnCapture(tenant, s.lastTraceID())
		}
	}
	s.profiles.Tick(now)
}

// captureSample snapshots every counter the SLO engine and the ops
// report consume into one mutually consistent tsdb sample.
func (s *Server) captureSample(now time.Time) tsdb.Sample {
	sample := tsdb.NewSample(now)

	for tenant, col := range s.collectors {
		tc := s.metrics.tenants[tenant]
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyRequestsTotal), float64(tc.requests.Load()))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyErrorsTotal), float64(tc.errors.Load()))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyReadsTotal), float64(tc.reads.Count()))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyReadSlowTotal), float64(tc.readSlow.Load()))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyUploadsTotal), float64(tc.uploads.Count()))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyUploadSlowTotal), float64(tc.uploadSlow.Load()))

		snap := col.Snapshot()
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyBlocksTotal), float64(snap.Blocks))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyBlocksDecodedTotal), float64(snap.BlocksDecoded))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyBytesInTotal), float64(snap.BytesIn))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyBytesOutTotal), float64(snap.BytesOutTotal))
		sample.Set(tsdb.ForTenant(tenant, tsdb.KeyStoreBytes), float64(s.st.Usage(tenant)))
		for stage, ss := range snap.Stages {
			sample.Set(tsdb.ForTenant(tenant, tsdb.StageNS(stage)), float64(ss.TotalNS))
		}
	}

	cs := s.cache.Stats()
	sample.Set(tsdb.KeyCacheHitsTotal, float64(cs.Hits))
	sample.Set(tsdb.KeyCacheMissesTotal, float64(cs.Misses))
	sample.Set(tsdb.KeyCacheEvictionsTotal, float64(cs.Evictions))
	sample.Set(tsdb.KeyCacheBytes, float64(cs.Bytes))
	sample.Set(tsdb.KeyInflightRequests, float64(s.metrics.inflight.Load()))
	sample.Set(tsdb.KeyGoroutines, float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample.Set(tsdb.KeyHeapAllocBytes, float64(ms.HeapAlloc))
	return sample
}

// forceBurnCapture records a CPU profile attributed to a tenant whose
// SLO just entered fast burn. Unlike a periodic sample — where a busy
// profiler means the moment is gone — a burn is a sustained condition,
// so a capture already in flight (e.g. the startup periodic capture)
// is worth a brief retry: a profile taken a second later still
// observes the burn. Bounded so a wedged profiler can't leak
// goroutines; each skipped attempt is counted by the ring.
func (s *Server) forceBurnCapture(tenant, traceID string) {
	for try := 0; try < 20; try++ {
		_, err := s.profiles.CaptureCPU(profring.ReasonSLOBurn, tenant, traceID)
		if !errors.Is(err, profring.ErrBusy) {
			return
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// burningObjectives lists a tenant's non-ok objectives for the fast-
// burn log line.
func burningObjectives(tr slo.TenantReport) []slo.Objective {
	var out []slo.Objective
	for _, os := range tr.Objectives {
		if os.State != slo.StateOK {
			out = append(out, os.Objective)
		}
	}
	return out
}

// lastTraceID returns the most recent retained trace's ID ("" when the
// ring is empty) — the best available join point between a forced
// profile and the traffic that triggered it.
func (s *Server) lastTraceID() string {
	ring := s.tracer.Ring()
	if len(ring) == 0 {
		return ""
	}
	return ring[len(ring)-1].TraceID
}

// handleSLO evaluates the SLOs on demand against a fresh sample and the
// history ring. The fresh sample is NOT added to the ring — reads must
// not perturb the sampler's evenly spaced history.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	rep := s.sloEngine.Evaluate(s.captureSample(time.Now()), s.history, s.metrics.tenantQuantiles())
	s.lastSLO.Store(rep)
	w.Header().Set("Content-Type", "application/json")
	writeJSONIndent(w, rep)
}

// handleHistory serves the metrics history ring.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.history.History().WriteJSON(w)
}

// readyCheck is one readiness dimension in the /readyz body.
type readyCheck struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// readyzBody is the /readyz JSON shape.
type readyzBody struct {
	Ready  bool                  `json:"ready"`
	Checks map[string]readyCheck `json:"checks"`
}

// quotaHeadroomFraction: a quota'd tenant at or above this fraction of
// its quota counts as exhausted for readiness.
const quotaHeadroomFraction = 0.98

// handleReadyz reports whether the daemon should receive traffic:
// the store must be open, the daemon must not be draining, and at
// least one quota'd tenant must have quota headroom (an SLO burning is
// deliberately NOT a readiness failure — restarting a daemon does not
// refill an error budget, so burn must page a human, not trip the
// load balancer).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{Ready: true, Checks: make(map[string]readyCheck)}

	storeOK := !s.st.Closed()
	storeDetail := "open"
	if !storeOK {
		storeDetail = "closed"
	}
	body.Checks["store"] = readyCheck{OK: storeOK, Detail: storeDetail}

	drainOK := !s.draining.Load()
	drainDetail := "serving"
	if !drainOK {
		drainDetail = "draining"
	}
	body.Checks["drain"] = readyCheck{OK: drainOK, Detail: drainDetail}

	// Quota headroom: only tenants with a quota participate; the check
	// fails only when EVERY quota'd tenant is effectively full (one
	// full tenant must not mark the whole daemon unready for the rest).
	quotad, exhausted := 0, 0
	for _, t := range s.cfg.tenantNames() {
		q := s.st.Quota(t)
		if q <= 0 {
			continue
		}
		quotad++
		if float64(s.st.Usage(t)) >= quotaHeadroomFraction*float64(q) {
			exhausted++
		}
	}
	quotaOK := quotad == 0 || exhausted < quotad
	detail := "no quotas configured"
	if quotad > 0 {
		detail = fmt.Sprintf("%d/%d quota'd tenants exhausted", exhausted, quotad)
	}
	body.Checks["quota_headroom"] = readyCheck{OK: quotaOK, Detail: detail}

	body.Ready = storeOK && drainOK && quotaOK
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSONIndent(w, body)
}

// writeJSONIndent writes v as indented JSON (debug surfaces are read
// by humans and diffed by tests; the extra bytes are irrelevant).
func writeJSONIndent(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
