#!/bin/sh
# serve_smoke.sh — boot a served instance on a loopback ephemeral port,
# drive it with loadgen's network mode under full verification (disjoint
# per-connection key spaces, shadow maps, final MGET sweep: any lost or
# divergent pair fails), scrape the admin telemetry plane mid-run
# (/metrics must carry the core series with live values, /healthz must
# report ready, counters must be monotone across scrapes), compare
# batched MGET reads against per-key GETs, then shut down gracefully and
# prove a restart recovers every pair into a map sized to its records,
# which new keys then grow by the watermark alone, SIGKILL served and
# prove the WAL replay recovers every pair with no torn tail, and
# finally start on a fresh directory whose only file is a WAL a crash
# left with no header. Used by `make serve-smoke` and the CI serve-smoke
# job.
#
# Env knobs:
#   SMOKE_OPS   ops for the verified run        (default 60000)
#   SMOKE_CONNS client connections              (default 4)
#   SMOKE_DIR   scratch dir (default: mktemp; removed on exit)
#   SMOKE_JSON  where loadgen's -json summaries land (default $SMOKE_DIR)
set -eu

OPS="${SMOKE_OPS:-60000}"
CONNS="${SMOKE_CONNS:-4}"
DIR="${SMOKE_DIR:-$(mktemp -d)}"
JSON_DIR="${SMOKE_JSON:-$DIR}"
DATA="$DIR/data"
ADDR_FILE="$DIR/addr"
ADMIN_FILE="$DIR/admin_addr"
LOG="$DIR/served.log"
SERVED_PID=""

cleanup() {
    if [ -n "$SERVED_PID" ] && kill -0 "$SERVED_PID" 2>/dev/null; then
        kill "$SERVED_PID" 2>/dev/null || true
        wait "$SERVED_PID" 2>/dev/null || true
    fi
    if [ -z "${SMOKE_DIR:-}" ]; then
        rm -rf "$DIR"
    fi
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- served log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

echo "serve-smoke: building served + loadgen"
go build -o "$DIR/served" ./cmd/served
go build -o "$DIR/loadgen" ./cmd/loadgen

# Boot on an ephemeral port; -addr-file publishes the bound address
# atomically once the listener is up. -wal-sync=false keeps the smoke
# fast; the ack-durability path is covered by the persist test suite.
start_served() {
    rm -f "$ADDR_FILE" "$ADMIN_FILE"
    "$DIR/served" -dir "$DATA" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
        -admin 127.0.0.1:0 -admin-addr-file "$ADMIN_FILE" \
        -wal-sync=false -drain 10s >>"$LOG" 2>&1 &
    SERVED_PID=$!
    i=0
    while [ ! -f "$ADDR_FILE" ] || [ ! -f "$ADMIN_FILE" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "served never published its address"
        kill -0 "$SERVED_PID" 2>/dev/null || fail "served exited during startup"
        sleep 0.1
    done
    ADDR="$(cat "$ADDR_FILE")"
    ADMIN="$(cat "$ADMIN_FILE")"
    echo "serve-smoke: served up at $ADDR (admin $ADMIN, pid $SERVED_PID)"
}

# fetch URL to stdout; curl everywhere CI runs, wget as the fallback.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS --max-time 10 "$1"
    else
        wget -qO- -T 10 "$1"
    fi
}

# metric NAME FILE — the value of an unlabeled sample line.
metric() {
    awk -v n="$1" '$1 == n { print $2 }' "$2"
}

stop_served() {
    kill -TERM "$SERVED_PID"
    wait "$SERVED_PID" || fail "served exited non-zero on SIGTERM"
    SERVED_PID=""
}

start_served

echo "serve-smoke: verified mixed workload ($OPS ops, $CONNS conns)"
"$DIR/loadgen" -net "$ADDR" -ops "$OPS" -conns "$CONNS" \
    -read 0.6 -delete 0.1 -verify -seed 7 \
    -json "$JSON_DIR/serve_smoke_verify.json" \
    || fail "verified run reported lost or divergent pairs"

# Mid-run telemetry: the workload above has touched every layer, so
# the scrape must show live values — a serving process whose /metrics
# is all zeros is a wiring bug, not a quiet one.
echo "serve-smoke: scraping the admin plane at $ADMIN"
fetch "http://$ADMIN/healthz" | grep -qx "ok" || fail "/healthz did not report ok"
fetch "http://$ADMIN/metrics" >"$DIR/metrics1" || fail "/metrics scrape failed"
for series in \
    repro_map_len repro_map_occupancy repro_map_getbatch_seconds \
    repro_map_probe_depth repro_map_put_seconds repro_map_backstop_resizes_total \
    repro_wal_appends_total repro_wal_healthy repro_wal_replay_records_total \
    repro_server_conns_accepted_total repro_server_gets_total \
    repro_server_sets_total repro_server_batch_size repro_server_get_seconds \
    repro_server_del_misses_total repro_server_err_too_big_total \
    repro_server_stats_total repro_server_mget_keys_total; do
    grep -q "^$series" "$DIR/metrics1" || fail "/metrics is missing $series"
done
[ "$(metric repro_wal_healthy "$DIR/metrics1")" = "1" ] \
    || fail "repro_wal_healthy != 1 on a healthy instance"
# Shards grew from served's initial geometry by the fluid-limit
# watermark alone: a backstop resize means a shard left the prediction.
[ "$(metric repro_map_backstop_resizes_total "$DIR/metrics1")" = "0" ] \
    || fail "repro_map_backstop_resizes_total != 0: stash pressure or a rejected Put grew a shard"
MAP_LEN=$(metric repro_map_len "$DIR/metrics1")
awk -v v="$MAP_LEN" 'BEGIN { exit !(v > 0) }' \
    || fail "repro_map_len $MAP_LEN after a mixed workload"
SETS1=$(metric repro_server_sets_total "$DIR/metrics1")
GETS1=$(metric repro_server_gets_total "$DIR/metrics1")
WAL1=$(metric repro_wal_appends_total "$DIR/metrics1")
awk -v s="$SETS1" -v g="$GETS1" -v w="$WAL1" \
    'BEGIN { exit !(s > 0 && g > 0 && w > 0) }' \
    || fail "core counters not live: sets=$SETS1 gets=$GETS1 wal_appends=$WAL1"

echo "serve-smoke: per-key GET vs batched MGET on the resident map"
"$DIR/loadgen" -net "$ADDR" -ops "$OPS" -conns "$CONNS" -read 1 -delete 0 \
    -json "$JSON_DIR/serve_smoke_get.json" >/dev/null \
    || fail "per-key GET run failed"
"$DIR/loadgen" -net "$ADDR" -ops "$OPS" -conns "$CONNS" -read 1 -delete 0 -mget 16 \
    -json "$JSON_DIR/serve_smoke_mget.json" >/dev/null \
    || fail "MGET run failed"

# The batched read path must beat per-key GETs by >= 1.2x on a
# DRAM-resident map (in practice it is several-fold: one round trip and
# one coalesced GetBatch per 16 keys). Ratio check in awk: CI images
# always have it, and the JSON fields are flat.
GET_OPS=$(awk -F'[:,]' '/"ops_per_sec"/{gsub(/[ "]/,"",$2); print $2}' "$JSON_DIR/serve_smoke_get.json")
MGET_OPS=$(awk -F'[:,]' '/"ops_per_sec"/{gsub(/[ "]/,"",$2); print $2}' "$JSON_DIR/serve_smoke_mget.json")
echo "serve-smoke: get $GET_OPS ops/sec, mget(16) $MGET_OPS ops/sec"
awk -v g="$GET_OPS" -v m="$MGET_OPS" 'BEGIN { exit !(m >= 1.2 * g) }' \
    || fail "MGET throughput $MGET_OPS not >= 1.2x per-key GET $GET_OPS"

# Second scrape: the read runs above must have moved the read-side
# counters strictly forward (monotonicity across scrapes), the MGET run
# must have produced multi-key server-side batches (more MGET keys than
# MGET requests), and the map must have recorded the live choice
# distribution: every served GET and MGET reads through GetBatch, which
# samples probe depths. Every request the three clean runs sent was
# decoded and answered exactly once: no decode error, and as many reply
# frames out as request frames in.
fetch "http://$ADMIN/metrics" >"$DIR/metrics2" || fail "second /metrics scrape failed"
DECODE2=$(metric repro_server_err_decode_total "$DIR/metrics2")
FRAMES_IN2=$(metric repro_server_frames_in_total "$DIR/metrics2")
FRAMES_OUT2=$(metric repro_server_frames_out_total "$DIR/metrics2")
awk -v d="$DECODE2" 'BEGIN { exit !(d != "" && d == 0) }' \
    || fail "repro_server_err_decode_total $DECODE2 after clean runs, want 0"
awk -v i="$FRAMES_IN2" -v o="$FRAMES_OUT2" 'BEGIN { exit !(i > 0 && o == i) }' \
    || fail "repro_server_frames_out_total $FRAMES_OUT2 != repro_server_frames_in_total $FRAMES_IN2: a request went unanswered or was answered twice"
GETS2=$(metric repro_server_gets_total "$DIR/metrics2")
MGETS2=$(metric repro_server_mgets_total "$DIR/metrics2")
MGET_KEYS2=$(metric repro_server_mget_keys_total "$DIR/metrics2")
BATCHES2=$(metric repro_server_batch_size_count "$DIR/metrics2")
DEPTHS2=$(metric repro_map_probe_depth_count "$DIR/metrics2")
awk -v a="$GETS1" -v b="$GETS2" 'BEGIN { exit !(b > a) }' \
    || fail "repro_server_gets_total not monotone across scrapes ($GETS1 -> $GETS2)"
awk -v m="$MGETS2" -v n="$BATCHES2" 'BEGIN { exit !(m > 0 && n > 0) }' \
    || fail "MGET run left no trace: mgets=$MGETS2 batch_count=$BATCHES2"
awk -v m="$MGETS2" -v k="$MGET_KEYS2" 'BEGIN { exit !(k > m) }' \
    || fail "repro_server_mget_keys_total $MGET_KEYS2 not above repro_server_mgets_total $MGETS2 after the MGET-16 run"
awk -v d="$DEPTHS2" 'BEGIN { exit !(d > 0) }' \
    || fail "repro_map_probe_depth_count $DEPTHS2 after the GET and MGET runs"
echo "serve-smoke: telemetry live and monotone (gets $GETS1 -> $GETS2, map_len $MAP_LEN, probe depths $DEPTHS2, frames $FRAMES_IN2 in = out, 0 decode errors)"

echo "serve-smoke: graceful shutdown + restart recovery"
stop_served
grep -q "checkpoint:" "$LOG" || fail "shutdown never checkpointed"
start_served
RECOVERED=$(grep -o "recovered [0-9]* pairs" "$LOG" | tail -1 | awk '{print $2}')
[ "$RECOVERED" -gt 0 ] || fail "restart recovered $RECOVERED pairs, expected the checkpointed map"
echo "serve-smoke: restart recovered $RECOVERED pairs"

# Recovery sizes the map to its records, not to -buckets: each shard
# loads to about its fluid-limit watermark (~0.7), where -buckets' 4096
# per shard would hold this map at ~0.06.
fetch "http://$ADMIN/metrics" >"$DIR/metrics3" || fail "post-restart /metrics scrape failed"
OCC3=$(metric repro_map_occupancy "$DIR/metrics3")
awk -v o="$OCC3" 'BEGIN { exit !(o >= 0.5) }' \
    || fail "restarted map occupancy $OCC3 < 0.5: recovery did not size the map to its records"
echo "serve-smoke: restarted map occupancy $OCC3"

# The restarted instance must still serve (plain run, not -verify: the
# shadow maps start empty, and the recovered pairs occupy the same key
# space — the oracle is only sound against a map its run populated).
"$DIR/loadgen" -net "$ADDR" -ops "$OPS" -conns "$CONNS" \
    -read 0.6 -delete 0.1 -seed 8 >/dev/null \
    || fail "post-restart run failed"
# The new keys grew the presized shards by the watermark alone.
fetch "http://$ADMIN/metrics" >"$DIR/metrics4" || fail "post-restart-run /metrics scrape failed"
[ "$(metric repro_map_backstop_resizes_total "$DIR/metrics4")" = "0" ] \
    || fail "repro_map_backstop_resizes_total != 0 after the post-restart run: a presized shard grew by a backstop"

# Crash recovery: SIGKILL leaves no checkpoint, so the restart replays
# the post-restart run's writes from the WAL, which ends in its
# zero-filled region. loadgen has finished, so no write was in flight:
# every pair must come back and nothing counts as a torn tail.
MAP_LEN4=$(metric repro_map_len "$DIR/metrics4")
echo "serve-smoke: SIGKILL with $MAP_LEN4 pairs + crash recovery"
kill -KILL "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=""
start_served
RECOVERED5=$(grep -o "recovered [0-9]* pairs" "$LOG" | tail -1 | awk '{print $2}')
awk -v r="$RECOVERED5" -v m="$MAP_LEN4" 'BEGIN { exit !(r != "" && r == m + 0) }' \
    || fail "restart after SIGKILL recovered $RECOVERED5 pairs, repro_map_len before it was $MAP_LEN4"
fetch "http://$ADMIN/metrics" >"$DIR/metrics5" || fail "post-crash /metrics scrape failed"
REPLAYED5=$(metric repro_wal_replay_records_total "$DIR/metrics5")
TORN5=$(metric repro_wal_replay_torn_total "$DIR/metrics5")
awk -v r="$REPLAYED5" 'BEGIN { exit !(r > 0) }' \
    || fail "repro_wal_replay_records_total $REPLAYED5 after a SIGKILL: the restart replayed no WAL"
awk -v t="$TORN5" 'BEGIN { exit !(t != "" && t == 0) }' \
    || fail "repro_wal_replay_torn_total $TORN5 after a SIGKILL with no write in flight: the zero-filled tail read as torn"
echo "serve-smoke: crash restart recovered $RECOVERED5 pairs ($REPLAYED5 WAL records replayed, 0 torn)"
stop_served

# A crash between the WAL's create and its header's fsync leaves a log
# with no header: here 16 zero bytes. No write was ever acknowledged to
# it, so served must start on it as on an empty directory, and every
# GET must answer not-found.
echo "serve-smoke: start on a crash-torn WAL image (16 zero bytes, no header)"
DATA="$DIR/torn"
mkdir -p "$DATA"
dd if=/dev/zero of="$DATA/wal" bs=16 count=1 2>/dev/null
start_served
"$DIR/loadgen" -net "$ADDR" -ops 200 -conns 1 -read 1 -delete 0 >/dev/null \
    || fail "GETs against the torn-WAL instance failed"
fetch "http://$ADMIN/metrics" >"$DIR/metrics6" || fail "torn-WAL /metrics scrape failed"
GETS6=$(metric repro_server_gets_total "$DIR/metrics6")
MISSES6=$(metric repro_server_get_misses_total "$DIR/metrics6")
awk -v g="$GETS6" -v m="$MISSES6" 'BEGIN { exit !(g > 0 && m == g) }' \
    || fail "on the torn-WAL instance $MISSES6 of $GETS6 GETs answered not-found, want all"
stop_served
echo "serve-smoke: torn-WAL start answered all $GETS6 GETs not-found"

echo "serve-smoke: PASS"
