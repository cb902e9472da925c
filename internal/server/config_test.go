package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pastrid.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigDefaults(t *testing.T) {
	cfg, err := LoadConfig(writeConfig(t, `{
		"store_dir": "/tmp/pastrid-store",
		"tenants": {"alice": {"error_bound": 1e-8, "quota_bytes": 1024}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.Listen != def.Listen || cfg.NumSB != def.NumSB || cfg.SBSize != def.SBSize ||
		cfg.DefaultErrorBound != def.DefaultErrorBound || cfg.CacheBytes != def.CacheBytes {
		t.Fatalf("unset fields did not inherit defaults: %+v", cfg)
	}
	if cfg.errorBound("alice") != 1e-8 {
		t.Fatalf("alice bound = %g, want 1e-8", cfg.errorBound("alice"))
	}
	if got := cfg.storeQuotas(); got["alice"] != 1024 {
		t.Fatalf("alice quota = %d, want 1024", got["alice"])
	}
}

func TestLoadConfigRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"store_dir":"/x","tenants":{"a":{}},"bogus":1}`, "bogus"},
		{"no tenants", `{"store_dir":"/x"}`, "at least one tenant"},
		{"bad tenant name", `{"store_dir":"/x","tenants":{"no/slash":{}}}`, "invalid tenant name"},
		{"negative quota", `{"store_dir":"/x","tenants":{"a":{"quota_bytes":-1}}}`, "negative quota_bytes"},
		{"no store dir", `{"tenants":{"a":{}}}`, "store_dir is empty"},
		{"bad geometry", `{"store_dir":"/x","num_sb":-4,"tenants":{"a":{}}}`, "block geometry"},
		{"negative workers", `{"store_dir":"/x","workers":-1,"tenants":{"a":{}}}`, "negative workers"},
		// Removed settings fail to load rather than being ignored.
		{"trace sample rate", `{"store_dir":"/x","tenants":{"a":{}},"trace":{"sample_rate":1}}`, `"sample_rate"`},
		{"tenant trace sample rate", `{"store_dir":"/x","tenants":{"a":{"trace_sample_rate":0.5}}}`, `"trace_sample_rate"`},
		{"default eb objective", `{"store_dir":"/x","tenants":{"a":{}},"slo":{"default":{"eb_objective":0.99999}}}`, `"eb_objective"`},
		{"tenant eb objective", `{"store_dir":"/x","tenants":{"a":{"slo":{"eb_objective":0.99999}}}}`, `"eb_objective"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadConfig(writeConfig(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing config file accepted")
	}
}
