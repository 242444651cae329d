package wire

// The server-side telemetry: lock-free per-op counters, service-time
// and batch-size histograms, and their names in the server's metrics
// registry. Every instrument is an obs type registered once, under its
// repro_server_* name, and the STATS verb's reply is that registry's
// Prometheus text exposition, so STATS and any HTTP endpoint serving
// the same registry read the same cells under the same names.

import "repro/internal/obs"

// Counters is the server's operation telemetry. Every field is an obs
// instrument: connection goroutines bump them lock-free, and an
// exposition of the server's registry (a STATS reply) reads each one
// individually (per-counter consistent, not cross-counter atomic — the
// same contract as the map's Stats). The zero value is ready to use.
type Counters struct {
	ConnsAccepted obs.Counter
	ConnsActive   obs.Counter

	FramesIn  obs.Counter
	FramesOut obs.Counter
	BytesIn   obs.Counter
	BytesOut  obs.Counter

	Gets      obs.Counter // GET requests served
	GetMisses obs.Counter
	Sets      obs.Counter
	Dels      obs.Counter
	DelMisses obs.Counter
	MGets     obs.Counter // MGET requests served
	MGetKeys  obs.Counter // keys across all MGETs
	StatsOps  obs.Counter

	ErrDecode obs.Counter // framing/parse failures (connection-fatal)
	ErrTooBig obs.Counter // frames over the size guard (connection-fatal)
	ErrSet    obs.Counter // backend Set failures
	ErrDel    obs.Counter // backend Delete failures

	// Per-op service time, measured around the backend call: GetNanos
	// records each coalesced GET batch (the GET path's unit of service —
	// one backend call answers the whole run), the others record each
	// request.
	GetNanos  obs.Histogram
	SetNanos  obs.Histogram
	DelNanos  obs.Histogram
	MGetNanos obs.Histogram

	// ConnNanos records each connection's lifetime at close; DrainNanos
	// records each Shutdown's drain duration.
	ConnNanos  obs.Histogram
	DrainNanos obs.Histogram

	// BatchSizes records the key count of every server-side GetBatch
	// call (coalesced GET runs and MGETs): how much per-connection read
	// batching actually coalesces under the live traffic mix.
	BatchSizes obs.Histogram
}

// register adds every instrument to reg under its repro_server_* name.
// Histograms recording nanoseconds are exposed in seconds.
func (c *Counters) register(reg *obs.Registry) {
	reg.Counter("repro_server_conns_accepted_total", "connections accepted", &c.ConnsAccepted)
	reg.Gauge("repro_server_conns_active", "connections currently open", func() float64 { return float64(c.ConnsActive.Load()) })
	reg.Counter("repro_server_frames_in_total", "request frames decoded", &c.FramesIn)
	reg.Counter("repro_server_frames_out_total", "reply frames written", &c.FramesOut)
	reg.Counter("repro_server_bytes_in_total", "request bytes read", &c.BytesIn)
	reg.Counter("repro_server_bytes_out_total", "reply bytes written", &c.BytesOut)
	reg.Counter("repro_server_gets_total", "GET requests served", &c.Gets)
	reg.Counter("repro_server_get_misses_total", "GET/MGET keys not found", &c.GetMisses)
	reg.Counter("repro_server_sets_total", "SET requests served", &c.Sets)
	reg.Counter("repro_server_dels_total", "DEL requests served", &c.Dels)
	reg.Counter("repro_server_del_misses_total", "DEL requests whose key was absent", &c.DelMisses)
	reg.Counter("repro_server_mgets_total", "MGET requests served", &c.MGets)
	reg.Counter("repro_server_mget_keys_total", "keys across all MGET requests", &c.MGetKeys)
	reg.Counter("repro_server_stats_total", "STATS requests served", &c.StatsOps)
	reg.Counter("repro_server_err_decode_total", "framing/parse failures", &c.ErrDecode)
	reg.Counter("repro_server_err_too_big_total", "frames over the size guard", &c.ErrTooBig)
	reg.Counter("repro_server_err_set_total", "backend Set failures", &c.ErrSet)
	reg.Counter("repro_server_err_del_total", "backend Delete failures", &c.ErrDel)
	reg.Histogram("repro_server_get_seconds", "coalesced GET batch service time (backend call)", &c.GetNanos, 1e-9)
	reg.Histogram("repro_server_set_seconds", "SET service time (backend call, includes WAL commit)", &c.SetNanos, 1e-9)
	reg.Histogram("repro_server_del_seconds", "DEL service time (backend call, includes WAL commit)", &c.DelNanos, 1e-9)
	reg.Histogram("repro_server_mget_seconds", "MGET service time (backend call)", &c.MGetNanos, 1e-9)
	reg.Histogram("repro_server_batch_size", "keys per server-side GetBatch call", &c.BatchSizes, 1)
	reg.Histogram("repro_server_conn_seconds", "connection lifetimes", &c.ConnNanos, 1e-9)
	reg.Histogram("repro_server_drain_seconds", "Shutdown drain durations", &c.DrainNanos, 1e-9)
}

// noteBatch records one coalesced GetBatch call of n keys.
//
//repro:noalloc
func (c *Counters) noteBatch(n int) {
	if n <= 0 {
		return
	}
	c.BatchSizes.Record(int64(n))
}
