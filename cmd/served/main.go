// Command served fronts a durable map (repro.DurableMap) with the
// binary-framed wire protocol (internal/wire) over TCP: GET / SET /
// DEL / MGET / STATS, pipelined per connection.
//
// The serving semantics follow from the layers below, not from the
// server itself:
//
//   - A SET's OK reply is a durability acknowledgement: the write's WAL
//     record was fsynced (group-committed with concurrent writers)
//     before the reply frame was queued. With -wal-sync=false the ack
//     only promises the record was handed to the kernel.
//   - Pipelined GETs arriving in one burst are coalesced into a single
//     GetBatch call against the map — the probes' cache misses overlap
//     exactly as in the in-process batched lookup tier, so deep client
//     pipelines recover most of the per-op network framing cost.
//   - Replies are strictly in request order; a connection observes its
//     own writes.
//
// On SIGINT/SIGTERM the server stops accepting, drains in-flight
// connections (bounded by -drain), checkpoints the map if asked, and
// closes it — the WAL's sticky-error discipline guarantees a failed
// fsync at any point has already turned later acks into errors rather
// than silent loss.
//
// Examples:
//
//	served -dir /var/lib/served                 # durable, fsynced acks
//	served -dir /tmp/d -wal-sync=false          # throughput over durability
//	served -addr 127.0.0.1:0 -addr-file a.txt   # tests/scripts discover the port
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/cmap"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4680", "TCP listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts discovering -addr :0)")
		dir      = flag.String("dir", "", "durable map directory (snapshot + WAL); required")
		walSync  = flag.Bool("wal-sync", true, "fsync the WAL before acknowledging a write")
		shards   = flag.Int("shards", 16, "shard count (rounded up to a power of two)")
		buckets  = flag.Int("buckets", 1<<12, "initial buckets per shard")
		slots    = flag.Int("slots", 4, "slots per bucket")
		d        = flag.Int("d", 3, "candidate buckets per key")
		grow     = flag.Float64("grow", 0.90, "max load factor: a shard doubles online past the lower of this and its fluid-limit watermark")
		seed     = flag.Uint64("seed", 0, "hash seed (0 = random)")
		maxFrame = flag.Int("max-frame", wire.DefaultMaxFrame, "largest accepted request frame in bytes")
		maxPipe  = flag.Int("max-pipeline", wire.DefaultMaxPipeline, "most requests coalesced per read burst")
		idle     = flag.Duration("idle-timeout", 5*time.Minute, "drop connections idle this long (0 = never)")
		wto      = flag.Duration("write-timeout", 30*time.Second, "per-burst reply write deadline (0 = none)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown budget before in-flight connections are force-closed")
		ckpt     = flag.Bool("checkpoint-on-exit", true, "write a snapshot and reset the WAL during shutdown")
		admin    = flag.String("admin", "", "admin HTTP listen address serving /metrics, /healthz and /debug/pprof/ (empty = disabled)")
		adminAF  = flag.String("admin-addr-file", "", "write the bound admin address to this file once listening")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "served: -dir is required (the durable map's snapshot + WAL directory)")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "served: ", log.LstdFlags)

	dm := repro.NewDurableMetrics()
	m, err := openStore(*dir,
		repro.WithShards(*shards), repro.WithBuckets(*buckets), repro.WithSlots(*slots),
		repro.WithD(*d), repro.WithMaxLoadFactor(*grow), repro.WithSeed(*seed),
		repro.WithWALSync(*walSync), repro.WithDurableMetrics(dm))
	if err != nil {
		logger.Fatalf("open %s: %v", *dir, err)
	}
	logger.Printf("recovered %d pairs from %s (wal fsync %v)", m.Len(), *dir, *walSync)
	mapMx := cmap.NewMetrics()
	m.Map().SetMetrics(mapMx) // before any traffic: the hot paths read it unsynchronized

	var reg *obs.Registry // assigned below, before the listener exists
	srv := wire.NewServer(&backend{m: m}, wire.Options{
		MaxFrameBytes: *maxFrame,
		MaxPipeline:   *maxPipe,
		IdleTimeout:   *idle,
		WriteTimeout:  *wto,
		Logf:          logger.Printf,
		// STATS carries the full registry snapshot over the wire — the
		// same series /metrics serves.
		ExtraStats: func(dst []byte) []byte { return reg.AppendProm(dst) },
	})
	reg = buildRegistry(m, dm, mapMx, srv.Counters())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := publishAddr(*addrFile, bound); err != nil {
			logger.Fatalf("publish -addr-file: %v", err)
		}
	}
	logger.Printf("listening on %s", bound)

	var adminSrv *http.Server
	if *admin != "" {
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			logger.Fatalf("admin listen %s: %v", *admin, err)
		}
		if *adminAF != "" {
			if err := publishAddr(*adminAF, adminLn.Addr().String()); err != nil {
				logger.Fatalf("publish -admin-addr-file: %v", err)
			}
		}
		adminSrv = serveAdmin(adminLn, reg, m, logger.Printf)
		logger.Printf("admin on http://%s/metrics", adminLn.Addr())
	}

	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		if err := srv.Serve(ln); err != nil {
			logger.Printf("serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Printf("%v: draining (budget %v)", got, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	serveWG.Wait()

	if *ckpt {
		start := time.Now()
		if err := m.Checkpoint(); err != nil {
			// A failed checkpoint is not fatal to durability: the WAL
			// still covers every acknowledged write, so log and move on
			// to Close rather than dying mid-shutdown.
			logger.Printf("checkpoint: %v", err)
		} else {
			logger.Printf("checkpoint: %d pairs in %v", m.Len(), time.Since(start).Round(time.Millisecond))
		}
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	if err := m.Close(); err != nil {
		logger.Fatalf("close: %v", err)
	}
	logger.Printf("bye")
}

// publishAddr writes the bound address to path atomically (tmp +
// rename) so a polling script never reads a half-written address. On
// either failure the tmp file is removed: scripts watch the directory
// for the final name, and a stale .tmp from a crashed earlier run must
// not survive to confuse the next one (fsyncorder flagged the previous
// inline version for exactly that leak).
//
//repro:poisons os.Remove
func publishAddr(path, bound string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename %s: %w", path, err)
	}
	return nil
}
