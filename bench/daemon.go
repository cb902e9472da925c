package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// tenant is the one tenant the benchmark's daemon serves.
const tenant = "bench"

// daemonConfig is pastrid's production configuration, the one
// server.DefaultConfig gives users, with the benchmark's store, an
// ephemeral port and the (dd|dd) geometry. Only the traced run changes
// anything else: it keeps every finished trace in a ring of ringDepth.
func daemonConfig(storeDir string, traced bool, ringDepth int) server.Config {
	cfg := server.DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.StoreDir = storeDir
	cfg.NumSB, cfg.SBSize = 36, 36
	cfg.DefaultErrorBound = errorBound
	cfg.Tenants = map[string]server.TenantConfig{tenant: {}}
	if traced {
		cfg.Trace.KeepFraction = 1
		cfg.Trace.RingDepth = ringDepth
	}
	return cfg
}

// daemon is one pastrid child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	started time.Time
	exited  chan struct{}
	waitErr error

	log string // the daemon's log file; pastrid logs every request, as in production
}

var listenRE = regexp.MustCompile(`msg="pastrid listening" listen_addr=(\S+)`)

// startDaemon writes cfg to dir, starts bin on it with its log in dir,
// and returns once /readyz answers 200. Cancelling ctx kills the
// daemon.
func startDaemon(ctx context.Context, bin, dir string, cfg server.Config) (*daemon, error) {
	path := filepath.Join(dir, "pastrid.json")
	raw, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "pastrid.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() //lint:errdrop-ok the daemon writes through its own descriptor; ours only hands it over
	d := &daemon{cmd: exec.CommandContext(ctx, bin, "-config", path), log: logPath, exited: make(chan struct{})}
	d.cmd.Stderr = logFile
	// If the benchmark dies without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pastrid: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for deadline := time.Now().Add(20 * time.Second); d.base == ""; {
		raw, _ := os.ReadFile(logPath) //lint:errdrop-ok an unreadable log just means no address yet; the loop retries until its deadline
		if m := listenRE.FindSubmatch(raw); m != nil {
			d.base = "http://" + string(m[1])
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pastrid exited before listening (%v):\n%s", d.waitErr, d.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pastrid did not report its listen address within 20s:\n%s", d.logTail())
		}
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //lint:errdrop-ok probe body; only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pastrid /readyz not 200 within 20s (last error %v):\n%s", err, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the end of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.log) //lint:errdrop-ok diagnostics for an error already being reported
	if len(raw) > 4096 {
		raw = raw[len(raw)-4096:]
	}
	return string(raw)
}

// stop asks the daemon to drain and exit, kills it if it has not
// within 15 s, and waits until it has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //lint:errdrop-ok the process may already be exiting; the wait below settles it
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //lint:errdrop-ok kill after a missed drain deadline; the wait below settles it
		<-d.exited
	}
}

// peakRSSMB is the daemon's VmHWM so far.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set size in MB (1e6 bytes).
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape fetches /metrics and sums each family's samples over labels.
func (d *daemon) scrape(hc *http.Client) (map[string]float64, error) {
	body, err := getBody(hc, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// getBody GETs url and returns the body of a 200 response.
func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //lint:errdrop-ok response body fully read; close error is unactionable
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
