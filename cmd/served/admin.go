package main

// The admin telemetry plane: the metrics registry aggregating every
// layer's instruments (map, WAL, checkpoint, server), and the optional
// -admin HTTP listener serving /metrics (Prometheus text), /healthz
// (readiness: 503 while the WAL is poisoned), and /debug/pprof/*.
// The same registry snapshot also rides the wire protocol's STATS
// verb via the server's ExtraStats hook, so a client without HTTP
// access reads identical telemetry.

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"repro"
	"repro/internal/cmap"
	"repro/internal/obs"
	"repro/internal/wire"
)

// servedMap is the concrete durable map served by this binary.
type servedMap = repro.DurableMap[string, []byte]

// buildRegistry wires every layer's instruments into one registry.
// Gauges pull from live structures at scrape time; counters and
// histograms share cells with the recording hot paths.
func buildRegistry(m *servedMap, dm *repro.DurableMetrics, mapMx *cmap.Metrics, cs *wire.Counters) *obs.Registry {
	reg := obs.NewRegistry()

	// Map layer: sampled Put latency, GetBatch call latency (every
	// served read is a GetBatch), the paper's which-choice-held
	// probe-depth distribution, and occupancy/resize/seqlock health
	// pulled from Stats().
	reg.Histogram("repro_map_put_seconds", "sampled map Put latency (1-in-64 digest-keyed sample)", mapMx.PutNanos, 1e-9)
	reg.Histogram("repro_map_getbatch_seconds", "map GetBatch whole-call latency (every call)", mapMx.BatchNanos, 1e-9)
	reg.Histogram("repro_map_probe_depth", "candidate index resolving sampled Get and GetBatch hits (0..d-1 buckets, d stash)", mapMx.ProbeDepth, 1)
	stat := func(f func(repro.ContainerStats) float64) func() float64 {
		return func() float64 { return f(m.Stats()) }
	}
	reg.Gauge("repro_map_len", "stored pairs", stat(func(s repro.ContainerStats) float64 { return float64(s.Len) }))
	reg.Gauge("repro_map_occupancy", "stored pairs over total slot capacity", stat(func(s repro.ContainerStats) float64 { return s.Occupancy }))
	reg.Gauge("repro_map_resizes_total", "completed online shard resizes", stat(func(s repro.ContainerStats) float64 { return float64(s.Resizes) }))
	reg.Gauge("repro_map_backstop_resizes_total", "shard resizes started by stash pressure or a rejected Put before the fluid-limit watermark (any nonzero means a shard left the prediction)", stat(func(s repro.ContainerStats) float64 { return float64(s.BackstopResizes) }))
	reg.Gauge("repro_map_migrating", "entries awaiting migration in resizing shards", stat(func(s repro.ContainerStats) float64 { return float64(s.Migrating) }))
	reg.Gauge("repro_map_seq_retries_total", "seqlock optimistic-read retries", stat(func(s repro.ContainerStats) float64 { return float64(s.SeqRetries) }))
	reg.Gauge("repro_map_seq_fallbacks_total", "seqlock reads that fell back to the shard lock", stat(func(s repro.ContainerStats) float64 { return float64(s.SeqFallbacks) }))

	// Durability layer: WAL append/fsync latency, group-commit batch
	// sizes, poison events, recovery totals, checkpoint cost.
	reg.Histogram("repro_wal_append_seconds", "WAL Append latency including the group-commit wait", dm.WAL.AppendNanos, 1e-9)
	reg.Histogram("repro_wal_fsync_seconds", "physical WAL fsync latency", dm.WAL.FsyncNanos, 1e-9)
	reg.Histogram("repro_wal_commit_batch", "records made durable per group-commit fsync", dm.WAL.CommitBatch, 1)
	reg.Counter("repro_wal_appends_total", "records acknowledged durable", dm.WAL.Appends)
	reg.Counter("repro_wal_poisoned_total", "sticky write/fsync poison events (any nonzero is an alarm)", dm.WAL.Poisoned)
	reg.Counter("repro_wal_replay_records_total", "records replayed at recovery", dm.WAL.ReplayRecords)
	reg.Counter("repro_wal_replay_torn_total", "recoveries that truncated a torn tail", dm.WAL.ReplayTorn)
	reg.Histogram("repro_checkpoint_seconds", "successful Checkpoint duration", dm.CheckpointNanos, 1e-9)
	reg.Histogram("repro_checkpoint_bytes", "successful checkpoint snapshot size", dm.CheckpointBytes, 1)
	reg.Gauge("repro_wal_healthy", "1 while the WAL accepts appends, 0 once poisoned", func() float64 {
		if m.Err() != nil {
			return 0
		}
		return 1
	})

	// Serving tier: per-op service time, coalescing, conn lifecycle.
	reg.Counter("repro_server_conns_accepted_total", "connections accepted", &cs.ConnsAccepted)
	reg.Gauge("repro_server_conns_active", "connections currently open", func() float64 { return float64(cs.ConnsActive.Load()) })
	reg.Counter("repro_server_frames_in_total", "request frames decoded", &cs.FramesIn)
	reg.Counter("repro_server_frames_out_total", "reply frames written", &cs.FramesOut)
	reg.Counter("repro_server_bytes_in_total", "request bytes read", &cs.BytesIn)
	reg.Counter("repro_server_bytes_out_total", "reply bytes written", &cs.BytesOut)
	reg.Counter("repro_server_gets_total", "GET requests served", &cs.Gets)
	reg.Counter("repro_server_get_misses_total", "GET/MGET keys not found", &cs.GetMisses)
	reg.Counter("repro_server_sets_total", "SET requests served", &cs.Sets)
	reg.Counter("repro_server_dels_total", "DEL requests served", &cs.Dels)
	reg.Counter("repro_server_mgets_total", "MGET requests served", &cs.MGets)
	reg.Counter("repro_server_err_decode_total", "framing/parse failures", &cs.ErrDecode)
	reg.Counter("repro_server_err_set_total", "backend Set failures", &cs.ErrSet)
	reg.Counter("repro_server_err_del_total", "backend Delete failures", &cs.ErrDel)
	reg.Histogram("repro_server_get_seconds", "coalesced GET batch service time (backend call)", &cs.GetNanos, 1e-9)
	reg.Histogram("repro_server_set_seconds", "SET service time (backend call, includes WAL commit)", &cs.SetNanos, 1e-9)
	reg.Histogram("repro_server_del_seconds", "DEL service time (backend call, includes WAL commit)", &cs.DelNanos, 1e-9)
	reg.Histogram("repro_server_mget_seconds", "MGET service time (backend call)", &cs.MGetNanos, 1e-9)
	reg.Histogram("repro_server_batch_size", "keys per server-side GetBatch call", &cs.BatchSizes, 1)
	reg.Histogram("repro_server_conn_seconds", "connection lifetimes", &cs.ConnNanos, 1e-9)
	reg.Histogram("repro_server_drain_seconds", "Shutdown drain durations", &cs.DrainNanos, 1e-9)
	return reg
}

// serveAdmin starts the admin HTTP plane on ln: /metrics, /healthz,
// /debug/pprof/*. It returns the server so main can Close it at exit.
func serveAdmin(ln net.Listener, reg *obs.Registry, m *servedMap, logf func(string, ...any)) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			logf("admin: /metrics write: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Readiness = the WAL still acknowledges durable writes. A
		// poisoned log refuses every append, so the process is serving
		// reads at best — pull it from write rotation.
		if err := m.Err(); err != nil {
			http.Error(w, "WAL poisoned: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("admin: %v", err)
		}
	}()
	return srv
}
