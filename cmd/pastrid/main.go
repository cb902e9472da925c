// Command pastrid is the PaSTRI network compression daemon: it accepts
// raw ERI block streams over HTTP, compresses them through the
// deterministic parallel pipeline, persists them in a sharded
// checksummed block store, and serves random-access block reads through
// an LRU cache of hot decoded blocks.
//
// Usage:
//
//	pastrid -config pastrid.json
//	pastrid -config pastrid.json -log json -loglevel debug
//	pastrid -printconfig              # show the built-in defaults
//
// The config file is JSON (see internal/server.Config); it names the
// listen address, store root, cache size, block geometry, the closed
// set of tenants with their error bounds and quotas, trace retention,
// SLO objectives and the profile ring. Unknown fields fail the load,
// including removed ones such as trace.sample_rate and eb_objective:
// every request is traced, and the SLOs cover only what the daemon
// measures (read and upload latency, 5xx errors). SIGINT or
// SIGTERM triggers a graceful shutdown that drains in-flight uploads —
// including compressions mid-stream — before closing the store.
//
// The report subcommand renders a plain-text ops report — SLO burn
// verdicts, dominant pipeline stage, cache trend — from a live daemon
// or a saved dump:
//
//	pastrid report -addr http://127.0.0.1:8080
//	pastrid report -file ops.json -out report.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/opsreport"
	"repro/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(runReport(os.Args[2:]))
	}
	os.Exit(run())
}

// runReport implements "pastrid report": fetch (or load) an ops dump
// and render it as plain text.
func runReport(args []string) int {
	fs := flag.NewFlagSet("pastrid report", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "", "base URL of a live daemon (e.g. http://127.0.0.1:8080)")
		file     = fs.String("file", "", "path to a saved ops dump (JSON) instead of a live daemon")
		outPath  = fs.String("out", "", "write the report here instead of stdout")
		dumpPath = fs.String("dump", "", "also save the raw ops dump (JSON) here")
	)
	fs.Parse(args) // ExitOnError FlagSet exits on parse failure

	var (
		d   opsreport.Dump
		err error
	)
	switch {
	case *addr != "" && *file != "":
		fmt.Fprintln(os.Stderr, "pastrid report: -addr and -file are mutually exclusive")
		return 2
	case *addr != "":
		d, err = opsreport.Fetch(http.DefaultClient, *addr)
	case *file != "":
		var f *os.File
		if f, err = os.Open(*file); err == nil {
			d, err = opsreport.Load(f)
			f.Close() //lint:errdrop-ok read-only handle fully consumed
		}
	default:
		fmt.Fprintln(os.Stderr, "pastrid report: one of -addr or -file is required")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastrid report:", err)
		return 1
	}

	if *dumpPath != "" {
		if err := writeFileWith(*dumpPath, d.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pastrid report:", err)
			return 1
		}
	}
	render := func(w io.Writer) error { return opsreport.Render(w, d) }
	if *outPath != "" {
		err = writeFileWith(*outPath, render)
	} else {
		err = render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastrid report:", err)
		return 1
	}
	return 0
}

// writeFileWith creates path and streams fn's output into it,
// preferring the write error over the close error.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close() //lint:errdrop-ok already failing; the write error wins
		return err
	}
	return f.Close()
}

func run() int {
	var (
		configPath  = flag.String("config", "", "path to the JSON service config (required)")
		logMode     = flag.String("log", "text", "log format: text or json")
		logLevel    = flag.String("loglevel", "info", "log level: debug, info, warn, error")
		drainSecs   = flag.Int("drain", 30, "graceful shutdown drain budget in seconds")
		tracePath   = flag.String("traceout", "", "write retained traces (Chrome trace-event JSON) here on shutdown")
		printConfig = flag.Bool("printconfig", false, "print the default config as JSON and exit")
	)
	flag.Parse()

	if *printConfig {
		def := server.DefaultConfig()
		def.StoreDir = "/var/lib/pastrid"
		def.Tenants = map[string]server.TenantConfig{
			"example": {ErrorBound: 1e-10, QuotaBytes: 1 << 30},
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(def); err != nil {
			fmt.Fprintln(os.Stderr, "pastrid:", err)
			return 1
		}
		return 0
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "pastrid: -config is required (see -printconfig for the shape)")
		return 2
	}

	logger, err := buildLogger(*logMode, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastrid:", err)
		return 2
	}
	cfg, err := server.LoadConfig(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastrid:", err)
		return 1
	}
	srv, err := server.New(cfg, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pastrid:", err)
		return 1
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	select {
	case sig := <-sigc:
		logger.Info("shutdown signal", "signal", sig.String(), "drain_seconds", *drainSecs)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "error", err.Error())
			return 1
		}
		if err := <-serveDone; err != nil {
			logger.Error("serve", "error", err.Error())
			return 1
		}
		if *tracePath != "" {
			if err := dumpTraces(srv, *tracePath); err != nil {
				logger.Error("traceout", "error", err.Error())
				return 1
			}
			logger.Info("traceout written", "path", *tracePath)
		}
	case err := <-serveDone:
		if err != nil {
			fmt.Fprintln(os.Stderr, "pastrid:", err)
			return 1
		}
	}
	return 0
}

// dumpTraces writes the retained-trace ring as Chrome trace-event JSON
// so a drained daemon leaves its last traces behind for inspection.
func dumpTraces(srv *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteTraces(f); err != nil {
		f.Close() //lint:errdrop-ok already failing; the write error wins
		return err
	}
	return f.Close()
}

func buildLogger(mode, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -loglevel %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log %q", mode)
	}
}
