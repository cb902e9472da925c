package trace

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

// TestTraceSchemaGolden pins the JSON shape of the trace surfaces:
// the Chrome trace-event export served by GET /debug/traces and
// written by -traceout (parsed by Perfetto, chrome://tracing,
// pastribench's ledger and the server tests' retention checks), the
// FinishedTrace/SpanData forms
// and the Stats snapshot. Renaming or retyping a field breaks those
// consumers silently, so the schema can only change together with
// this golden (go test ./internal/telemetry/trace -run Schema -update).
func TestTraceSchemaGolden(t *testing.T) {
	var schema strings.Builder
	describeType(&schema, "chrome", reflect.TypeOf(chromeDoc{}))
	schema.WriteString("\n")
	describeType(&schema, "finished_trace", reflect.TypeOf(FinishedTrace{}))
	schema.WriteString("\n")
	describeType(&schema, "stats", reflect.TypeOf(Stats{}))
	got := schema.String()

	golden := filepath.Join("testdata", "trace_schema.golden")
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
		t.Fatalf("trace JSON schema drifted from golden.\n"+
			"If the change is intentional, update downstream consumers and rerun with -update.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// describeType renders one line per JSON field path: path, wire name,
// Go type, and whether the field is omitempty. Mirrors the snapshot
// schema golden in internal/telemetry.
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

// descend recurses into composite field types so nested structs get
// their own schema lines.
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

// wireType names the JSON encoding a Go type produces.
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
