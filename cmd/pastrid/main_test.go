package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server"
)

// TestReportLiveMatchesSaved renders the ops report of a live daemon
// that has served an upload and a read, saving its dump on the way,
// then renders the saved dump: the two reports must be identical.
func TestReportLiveMatchesSaved(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.StoreDir = t.TempDir()
	cfg.Tenants = map[string]server.TenantConfig{"t": {}}
	srv, err := server.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	block := make([]byte, cfg.NumSB*cfg.SBSize*8)
	for _, r := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodPost, "/v1/streams?id=s", block, http.StatusCreated},
		{http.MethodGet, "/v1/streams/s/blocks/0", nil, http.StatusOK},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, bytes.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pastri-Tenant", "t")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != r.want {
			t.Fatalf("%s %s: status %d, want %d", r.method, r.path, resp.StatusCode, r.want)
		}
	}

	dir := t.TempDir()
	dump, live, saved := filepath.Join(dir, "ops.json"), filepath.Join(dir, "live.txt"), filepath.Join(dir, "saved.txt")
	if code := runReport([]string{"-addr", ts.URL, "-dump", dump, "-out", live}); code != 0 {
		t.Fatalf("report -addr exited %d", code)
	}
	if code := runReport([]string{"-file", dump, "-out", saved}); code != 0 {
		t.Fatalf("report -file exited %d", code)
	}
	a, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(a, []byte("tenant t")) {
		t.Fatalf("live report does not cover tenant t:\n%s", a)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("report from the saved dump differs from the live one\nlive:\n%s\nsaved:\n%s", a, b)
	}
}

// TestReportNeedsOneSource: report reads either a live daemon or a
// saved dump, so naming neither or both is a usage error.
func TestReportNeedsOneSource(t *testing.T) {
	for _, args := range [][]string{nil, {"-addr", "http://127.0.0.1:1", "-file", "ops.json"}} {
		if code := runReport(args); code != 2 {
			t.Errorf("report %q exited %d, want 2", args, code)
		}
	}
}
