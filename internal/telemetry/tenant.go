package telemetry

import (
	"io"
	"sort"
)

// WriteTenantPrometheus renders a set of per-tenant collectors as
// tenant-labeled pipeline counter families, in Prometheus text format.
// Each family header is emitted once, followed by one sample per tenant
// in sorted tenant order, so scrapes are deterministic and the golden
// wire tests can lock the exact label names.
//
// Only the counter families are exported per tenant — stage-latency
// series would multiply cardinality by tenant count for little
// operational value (pastrid's request-level latency histograms cover
// that axis). Runtime families are left to the caller, which composes
// this output with its own server families and a single
// writeRuntimeMetrics-equivalent block.
func WriteTenantPrometheus(w io.Writer, tenants map[string]*Collector) error {
	p := NewPromWriter(w)
	names := make([]string, 0, len(tenants))
	for t, c := range tenants {
		if c != nil {
			names = append(names, t)
		}
	}
	sort.Strings(names)

	each := func(name, help string, load func(c *Collector) float64) {
		p.Header(name, help, "counter")
		for _, t := range names {
			p.Sample(name, load(tenants[t]), "tenant", t)
		}
	}
	each("pastri_tenant_blocks_total", "Blocks compressed per tenant.",
		func(c *Collector) float64 { return float64(c.blocks.Load()) })
	each("pastri_tenant_bytes_in_total", "Raw bytes entering compression per tenant.",
		func(c *Collector) float64 { return float64(c.bytesIn.Load()) })
	each("pastri_tenant_bytes_out_payload_total", "Compressed block payload bytes per tenant.",
		func(c *Collector) float64 { return float64(c.bytesPayload.Load()) })
	each("pastri_tenant_bytes_out_framing_total", "Stream framing bytes per tenant.",
		func(c *Collector) float64 { return float64(c.bytesFraming.Load()) })
	each("pastri_tenant_blocks_decoded_total", "Blocks decompressed per tenant.",
		func(c *Collector) float64 { return float64(c.blocksDecoded.Load()) })
	each("pastri_tenant_decoded_bytes_out_total", "Raw bytes produced by decode per tenant.",
		func(c *Collector) float64 { return float64(c.decodedBytesOut.Load()) })

	p.Header("pastri_tenant_blocks_encoded_total", "Blocks per chosen ECQ encoding per tenant.", "counter")
	for _, t := range names {
		c := tenants[t]
		for e := BlockEncoding(0); e < numBlockEncodings; e++ {
			p.Sample("pastri_tenant_blocks_encoded_total", float64(c.enc[e].Load()),
				"tenant", t, "encoding", e.String())
		}
	}
	return p.Err()
}

// WriteRuntimePrometheus renders only the Go runtime/GC families — the
// building block pastrid uses to compose a complete scrape from
// tenant-labeled pipeline families plus its own server families.
func WriteRuntimePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	writeRuntimeMetrics(p)
	return p.Err()
}
