package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"
)

// maxConns caps the benchmark's connections to the daemon: the load
// comes from one process with at most two request goroutines, so the
// numbers measure pastrid rather than client contention on two vCPUs.
const maxConns = 2

// client issues pastrid requests over loopback keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqTrace is the client side of one traced request: the W3C ids the
// benchmark sent and the httptrace timestamps.
type reqTrace struct {
	traceID, spanID string
	due             time.Time // open loop: when the request was scheduled
	start           time.Time
	gotConn         time.Time
	firstByte       time.Time
	end             time.Time
}

// newReqTrace draws fresh trace and span ids from rng.
func newReqTrace(rng *rand.Rand) *reqTrace {
	var tid [16]byte
	var sid [8]byte
	for i := range tid {
		tid[i] = byte(rng.Uint32())
	}
	for i := range sid {
		sid[i] = byte(rng.Uint32())
	}
	tid[0] |= 1 // W3C forbids all-zero ids
	sid[0] |= 1
	return &reqTrace{traceID: hex.EncodeToString(tid[:]), spanID: hex.EncodeToString(sid[:])}
}

// prepare attaches the traceparent header (sampled) and the httptrace
// hooks to req. A nil rt leaves the request exactly as a plain client
// sends it.
func (rt *reqTrace) prepare(req *http.Request) *http.Request {
	if rt == nil {
		return req
	}
	req.Header.Set("Traceparent", "00-"+rt.traceID+"-"+rt.spanID+"-01")
	ct := &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { rt.gotConn = time.Now() },
		GotFirstResponseByte: func() { rt.firstByte = time.Now() },
	}
	return req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
}

func (c *client) do(ctx context.Context, method, path string, body []byte, rt *reqTrace, out *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Pastri-Tenant", tenant)
	req = rt.prepare(req)
	if rt != nil {
		rt.start = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close() //lint:errdrop-ok response body fully read; close error is unactionable
	out.Reset()
	_, err = out.ReadFrom(resp.Body)
	if rt != nil {
		rt.end = time.Now()
	}
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// read fetches one decoded block into out.
func (c *client) read(ctx context.Context, id string, block int, rt *reqTrace, out *bytes.Buffer) error {
	path := "/v1/streams/" + id + "/blocks/" + strconv.Itoa(block)
	status, err := c.do(ctx, http.MethodGet, path, nil, rt, out)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, out.Bytes())
	}
	return nil
}

// uploadReply is the part of pastrid's 201 body the benchmark checks.
type uploadReply struct {
	Blocks      int   `json:"blocks"`
	RawBytes    int64 `json:"raw_bytes"`
	StoredBytes int64 `json:"stored_bytes"`
}

// upload stores body as stream id.
func (c *client) upload(ctx context.Context, id string, body []byte, rt *reqTrace, out *bytes.Buffer) (uploadReply, error) {
	var rep uploadReply
	status, err := c.do(ctx, http.MethodPost, "/v1/streams?id="+id, body, rt, out)
	if err != nil {
		return rep, err
	}
	if status != http.StatusCreated {
		return rep, fmt.Errorf("upload %s: status %d: %s", id, status, out.Bytes())
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("upload %s: reply %q: %w", id, out.Bytes(), err)
	}
	return rep, nil
}

// remove deletes stream id.
func (c *client) remove(ctx context.Context, id string, out *bytes.Buffer) error {
	status, err := c.do(ctx, http.MethodDelete, "/v1/streams/"+id, nil, nil, out)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("delete %s: status %d: %s", id, status, out.Bytes())
	}
	return nil
}
