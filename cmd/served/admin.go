package main

// The admin telemetry plane: the map, WAL and checkpoint series added
// to the wire server's registry, which already holds the server's own,
// and the optional -admin HTTP listener serving /metrics (that
// registry's Prometheus text), /healthz (readiness: 503 while the WAL
// is poisoned), and /debug/pprof/*. The wire protocol's STATS verb
// replies with the same registry's exposition, so a client without
// HTTP access reads the same series in the same order.

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"repro"
	"repro/internal/cmap"
	"repro/internal/obs"
)

// servedMap is the concrete durable map served by this binary.
type servedMap = repro.DurableMap[string, []byte]

// buildRegistry adds the map's, the WAL's and the checkpoint's
// instruments to reg, the wire server's registry. Gauges pull from
// live structures at scrape time; counters and histograms share cells
// with the recording hot paths.
func buildRegistry(reg *obs.Registry, m *servedMap, dm *repro.DurableMetrics, mapMx *cmap.Metrics) {
	// Map layer: sampled Put latency, GetBatch call latency (every
	// served read is a GetBatch), the paper's which-choice-held
	// probe-depth distribution, and occupancy/resize/seqlock health
	// read from one Stats() per scrape: Stats walks every bucket of
	// every shard.
	reg.Histogram("repro_map_put_seconds", "sampled map Put latency (1-in-64 digest-keyed sample)", mapMx.PutNanos, 1e-9)
	reg.Histogram("repro_map_getbatch_seconds", "map GetBatch whole-call latency (every call)", mapMx.BatchNanos, 1e-9)
	reg.Histogram("repro_map_probe_depth", "candidate index resolving sampled Get and GetBatch hits (0..d-1 buckets, d stash)", mapMx.ProbeDepth, 1)
	type stat = obs.SetGauge[repro.ContainerStats]
	obs.GaugeSet(reg, m.Stats,
		stat{Name: "repro_map_len", Help: "stored pairs", Value: func(s repro.ContainerStats) float64 { return float64(s.Len) }},
		stat{Name: "repro_map_occupancy", Help: "stored pairs over total slot capacity", Value: func(s repro.ContainerStats) float64 { return s.Occupancy }},
		stat{Name: "repro_map_resizes_total", Help: "completed online shard resizes", Value: func(s repro.ContainerStats) float64 { return float64(s.Resizes) }},
		stat{Name: "repro_map_backstop_resizes_total", Help: "shard resizes started by stash pressure or a rejected Put before the fluid-limit watermark (any nonzero means a shard left the prediction)", Value: func(s repro.ContainerStats) float64 { return float64(s.BackstopResizes) }},
		stat{Name: "repro_map_migrating", Help: "entries awaiting migration in resizing shards", Value: func(s repro.ContainerStats) float64 { return float64(s.Migrating) }},
		stat{Name: "repro_map_seq_retries_total", Help: "seqlock optimistic-read retries", Value: func(s repro.ContainerStats) float64 { return float64(s.SeqRetries) }},
		stat{Name: "repro_map_seq_fallbacks_total", Help: "seqlock reads that fell back to the shard lock", Value: func(s repro.ContainerStats) float64 { return float64(s.SeqFallbacks) }},
	)

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
