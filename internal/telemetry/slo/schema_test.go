package slo

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden schema files")

// TestReportSchemaGolden pins the JSON shape of the /debug/slo payload
// the same way the telemetry snapshot golden does: one line per field
// path with its wire type. The report is consumed by pastrid report
// and the server tests, so the schema only changes together with this
// golden
// (go test ./internal/telemetry/slo -run Schema -update).
func TestReportSchemaGolden(t *testing.T) {
	var schema strings.Builder
	describeType(&schema, "slo_report", reflect.TypeOf(Report{}))
	got := schema.String()

	golden := filepath.Join("testdata", "slo_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/debug/slo JSON schema drifted from golden.\n"+
			"If the change is intentional, update downstream consumers and rerun with -update.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// describeType / descend / wireType mirror the schema-golden helpers
// in internal/telemetry (test-only code, so not exported from there).
func describeType(w *strings.Builder, path string, t reflect.Type) {
	switch t.Kind() {
	case reflect.Pointer:
		describeType(w, path, t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			tag := f.Tag.Get("json")
			name, opts, _ := strings.Cut(tag, ",")
			if name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			line := fmt.Sprintf("%s.%s %s", path, name, wireType(f.Type))
			if strings.Contains(","+opts+",", ",omitempty,") {
				line += " omitempty"
			}
			w.WriteString(line + "\n")
			descend(w, path+"."+name, f.Type)
		}
	}
}

func descend(w *strings.Builder, path string, t reflect.Type) {
	switch t.Kind() {
	case reflect.Pointer:
		descend(w, path, t.Elem())
	case reflect.Struct:
		describeType(w, path, t)
	case reflect.Slice, reflect.Array:
		descend(w, path+"[]", t.Elem())
	case reflect.Map:
		descend(w, path+"{"+t.Key().Kind().String()+"}", t.Elem())
	}
}

func wireType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer:
		return wireType(t.Elem())
	case reflect.String:
		return "string"
	case reflect.Bool:
		return "bool"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "integer"
	case reflect.Float32, reflect.Float64:
		return "number"
	case reflect.Slice, reflect.Array:
		return "array(" + wireType(t.Elem()) + ")"
	case reflect.Map:
		return "object(" + t.Key().Kind().String() + "->" + wireType(t.Elem()) + ")"
	case reflect.Struct:
		return "object " + t.Name()
	default:
		return t.Kind().String()
	}
}
