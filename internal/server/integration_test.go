package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// The integration battery: upload the committed golden fixtures through
// the HTTP daemon at worker counts {1, 4, 7}, read every block back by
// random access, and byte-compare against the serial Decompress result
// (the committed .dec.f64 fixture). The stored segment must also be
// byte-identical across all worker counts — the sequencer determinism
// guarantee, observed end to end through the service.

const goldenDir = "../core/testdata/golden"

// integrationWorkerCounts per the acceptance battery.
var integrationWorkerCounts = []int{1, 4, 7}

// goldenServeCase is one fixture the server's default codec settings
// can reproduce (ER metric, Tree-5 encoding, adaptive sparse).
type goldenServeCase struct {
	name string
	cfg  core.Config
	comp []byte // the committed Compress stream
	raw  []byte // upload body: raw little-endian float64 blocks
	dec  []byte // serial Decompress output, little-endian
}

// loadGoldenServeCases reads the committed fixtures, skipping the ones
// whose codec settings the service does not expose (non-default metric
// or encoding).
func loadGoldenServeCases(t *testing.T) []goldenServeCase {
	t.Helper()
	pstrs, err := filepath.Glob(filepath.Join(goldenDir, "*.pstr"))
	if err != nil || len(pstrs) == 0 {
		t.Fatalf("no golden fixtures under %s (err=%v)", goldenDir, err)
	}
	def := core.Defaults(1, 1, 1)
	var cases []goldenServeCase
	for _, pstr := range pstrs {
		name := strings.TrimSuffix(filepath.Base(pstr), ".pstr")
		comp, err := os.ReadFile(pstr)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, _, err := core.ParseHeader(comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Metric != def.Metric || cfg.Encoding != def.Encoding || cfg.DisableSparse {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(goldenDir, name+".raw.f64"))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := os.ReadFile(filepath.Join(goldenDir, name+".dec.f64"))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenServeCase{name: name, cfg: cfg, comp: comp, raw: raw, dec: dec})
	}
	if len(cases) < 3 {
		t.Fatalf("only %d default-codec golden fixtures; battery expects at least 3", len(cases))
	}
	return cases
}

// testConfig returns a service config rooted in a fresh temp dir.
func testConfig(t *testing.T, cfg core.Config, workers int) Config {
	t.Helper()
	c := DefaultConfig()
	c.Listen = "127.0.0.1:0"
	c.StoreDir = t.TempDir()
	c.CacheBytes = 1 << 20
	c.Workers = workers
	c.NumSB = cfg.NumSB
	c.SBSize = cfg.SBSize
	c.DefaultErrorBound = cfg.ErrorBound
	c.Tenants = map[string]TenantConfig{"it": {}}
	return c
}

// call sends one request as tenant and returns the response body and
// the trace ID of its traceparent header (empty when absent). A status
// other than want is an error. call never fails the test itself, so
// load goroutines use it directly.
func call(client *http.Client, method, url, tenant string, body []byte, want int) ([]byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("X-Pastri-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, "", fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, out)
	}
	var traceID string
	if tp := resp.Header.Get("Traceparent"); len(tp) == 55 {
		traceID = tp[3:35]
	}
	return out, traceID, nil
}

// upload POSTs a raw body and fails the test on a non-201 response.
func upload(t *testing.T, ts *httptest.Server, tenant, id string, body []byte) map[string]any {
	t.Helper()
	resp, _, err := call(ts.Client(), http.MethodPost, ts.URL+"/v1/streams?id="+id, tenant, body, http.StatusCreated)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// readBlock GETs one block's raw payload.
func readBlock(t *testing.T, ts *httptest.Server, tenant, id string, n int) []byte {
	t.Helper()
	body, _, err := call(ts.Client(), http.MethodGet, blockURL(ts.URL, id, n), tenant, nil, http.StatusOK)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// blockURL is the read route for block n of stream id.
func blockURL(baseURL, id string, n int) string {
	return fmt.Sprintf("%s/v1/streams/%s/blocks/%d", baseURL, id, n)
}

// findSegment locates the single committed segment under a store dir.
func findSegment(t *testing.T, storeDir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(storeDir, "shard-*", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one committed segment, found %v (err=%v)", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIntegrationGoldenServe(t *testing.T) {
	for _, gc := range loadGoldenServeCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			segByWorkers := make(map[int][]byte)
			for _, workers := range integrationWorkerCounts {
				cfg := testConfig(t, gc.cfg, workers)
				srv, err := New(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())

				resp := upload(t, ts, "it", "g", gc.raw)
				blockSize := gc.cfg.BlockSize()
				wantBlocks := len(gc.raw) / (blockSize * 8)
				if got := int(resp["blocks"].(float64)); got != wantBlocks {
					t.Fatalf("workers=%d: uploaded %d blocks, want %d", workers, got, wantBlocks)
				}

				// Random-access read of every block, twice (second pass
				// exercises the cache path), byte-compared to the serial
				// Decompress fixture.
				for pass := 0; pass < 2; pass++ {
					for b := 0; b < wantBlocks; b++ {
						got := readBlock(t, ts, "it", "g", b)
						want := gc.dec[b*blockSize*8 : (b+1)*blockSize*8]
						if !bytes.Equal(got, want) {
							t.Fatalf("workers=%d pass=%d block %d: served bytes differ from serial Decompress", workers, pass, b)
						}
					}
				}

				// The stored segment itself must decode serially to the
				// fixture: the service never stores bytes the library
				// toolchain cannot reproduce.
				seg := findSegment(t, cfg.StoreDir)
				dec, err := core.Decompress(seg, 1)
				if err != nil {
					t.Fatalf("workers=%d: stored segment does not decompress: %v", workers, err)
				}
				if !bytes.Equal(float64Bytes(dec), gc.dec) {
					t.Fatalf("workers=%d: serial decode of stored segment differs from golden", workers)
				}
				segByWorkers[workers] = seg

				ts.Close()
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Sequencer determinism through the service: the committed
			// segment bytes are identical at every worker count.
			base := segByWorkers[integrationWorkerCounts[0]]
			for _, workers := range integrationWorkerCounts[1:] {
				if !bytes.Equal(segByWorkers[workers], base) {
					t.Fatalf("stored segment differs between workers=%d and workers=%d",
						integrationWorkerCounts[0], workers)
				}
			}
		})
	}
}

// Tenant isolation: a stream uploaded by one tenant is invisible to
// another, even with the id known.
func TestIntegrationTenantIsolation(t *testing.T) {
	gc := loadGoldenServeCases(t)[0]
	cfg := testConfig(t, gc.cfg, 2)
	cfg.Tenants["other"] = TenantConfig{}
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload(t, ts, "it", "mine", gc.raw)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/mine/blocks/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", "other")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant read: status %d, want 404", resp.StatusCode)
	}
}

// Graceful shutdown must drain an upload that is mid-flight: the client
// finishes streaming after Shutdown begins and still gets a 201, and
// the stream is committed.
func TestIntegrationGracefulShutdownDrains(t *testing.T) {
	gc := loadGoldenServeCases(t)[0]
	cfg := testConfig(t, gc.cfg, 2)
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeListener(ln) }()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/streams?id=drain", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pastri-Tenant", "it")
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	// Stream the first half, begin shutdown, then finish the body.
	half := len(gc.raw) / 2
	if _, err := pw.Write(gc.raw[:half]); err != nil {
		t.Fatal(err)
	}
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown a beat to close the listener, then finish uploading
	// over the already-established connection.
	time.Sleep(50 * time.Millisecond)
	if _, err := pw.Write(gc.raw[half:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case resp := <-respc:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("in-flight upload during shutdown: status %d: %s", resp.StatusCode, b)
		}
	case err := <-errc:
		t.Fatalf("in-flight upload failed during shutdown: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("upload did not complete during shutdown drain")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// The segment the service stores for an upload must be byte-identical
// to the committed golden stream of the same blocks, with the header's
// block count set to the streaming sentinel: the encoder's output
// observed through the full HTTP ingest stack (parallel workers,
// sequencer, store), under the race detector in CI's serve-test job.
func TestIntegrationSegmentMatchesSerialStream(t *testing.T) {
	for _, gc := range loadGoldenServeCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			cfg := testConfig(t, gc.cfg, 4)
			srv, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			upload(t, ts, "it", "fused", gc.raw)
			seg := findSegment(t, cfg.StoreDir)
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			// Oracle: the golden stream, whose header an incremental
			// writer cannot give a block count; it records the all-ones
			// sentinel in the header's last 8 bytes (offset 24) instead.
			want := append([]byte(nil), gc.comp...)
			binary.LittleEndian.PutUint64(want[24:32], math.MaxUint64)
			if !bytes.Equal(seg, want) {
				t.Fatalf("stored segment differs from the golden stream (%d vs %d bytes)",
					len(seg), len(want))
			}
		})
	}
}
