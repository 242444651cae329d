package wire

// The STATS conformance tests: a STATS reply is the server registry's
// Prometheus text exposition, and external scrapers parse it line by
// line, so the exact bytes for a deterministic Counters state are
// pinned here. Any intentional format change must update this golden
// consciously.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestAppendTextGolden(t *testing.T) {
	s := NewServer(nil, Options{})
	c := s.Counters()
	c.ConnsAccepted.Add(3)
	c.ConnsActive.Add(2)
	c.FramesIn.Add(10)
	c.FramesOut.Add(9)
	c.BytesIn.Add(512)
	c.BytesOut.Add(256)
	c.Gets.Add(4)
	c.GetMisses.Add(1)
	c.Sets.Add(2)
	c.Dels.Add(1)
	c.MGets.Add(1)
	c.MGetKeys.Add(3)
	c.StatsOps.Add(1)
	c.noteBatch(1)
	c.noteBatch(3)
	c.noteBatch(3)
	c.noteBatch(2000) // at 32 and above values share buckets (this one is 32 wide): its quantile and _sum are approximate
	// Service-time values below 32 record exactly, so the quantile
	// lines are exact multiples of 1e-9 s.
	c.SetNanos.Record(17)
	c.SetNanos.Record(17)
	c.DrainNanos.Record(5)

	got := string(s.Registry().AppendProm(nil))
	want := `# HELP repro_server_batch_size keys per server-side GetBatch call
# TYPE repro_server_batch_size summary
repro_server_batch_size{quantile="0.5"} 3
repro_server_batch_size{quantile="0.99"} 2015
repro_server_batch_size{quantile="0.999"} 2015
repro_server_batch_size_sum 2006.5
repro_server_batch_size_count 4
# HELP repro_server_bytes_in_total request bytes read
# TYPE repro_server_bytes_in_total counter
repro_server_bytes_in_total 512
# HELP repro_server_bytes_out_total reply bytes written
# TYPE repro_server_bytes_out_total counter
repro_server_bytes_out_total 256
# HELP repro_server_conn_seconds connection lifetimes
# TYPE repro_server_conn_seconds summary
repro_server_conn_seconds{quantile="0.5"} 0
repro_server_conn_seconds{quantile="0.99"} 0
repro_server_conn_seconds{quantile="0.999"} 0
repro_server_conn_seconds_sum 0
repro_server_conn_seconds_count 0
# HELP repro_server_conns_accepted_total connections accepted
# TYPE repro_server_conns_accepted_total counter
repro_server_conns_accepted_total 3
# HELP repro_server_conns_active connections currently open
# TYPE repro_server_conns_active gauge
repro_server_conns_active 2
# HELP repro_server_del_misses_total DEL requests whose key was absent
# TYPE repro_server_del_misses_total counter
repro_server_del_misses_total 0
# HELP repro_server_del_seconds DEL service time (backend call, includes WAL commit)
# TYPE repro_server_del_seconds summary
repro_server_del_seconds{quantile="0.5"} 0
repro_server_del_seconds{quantile="0.99"} 0
repro_server_del_seconds{quantile="0.999"} 0
repro_server_del_seconds_sum 0
repro_server_del_seconds_count 0
# HELP repro_server_dels_total DEL requests served
# TYPE repro_server_dels_total counter
repro_server_dels_total 1
# HELP repro_server_drain_seconds Shutdown drain durations
# TYPE repro_server_drain_seconds summary
repro_server_drain_seconds{quantile="0.5"} 5e-09
repro_server_drain_seconds{quantile="0.99"} 5e-09
repro_server_drain_seconds{quantile="0.999"} 5e-09
repro_server_drain_seconds_sum 5e-09
repro_server_drain_seconds_count 1
# HELP repro_server_err_decode_total framing/parse failures
# TYPE repro_server_err_decode_total counter
repro_server_err_decode_total 0
# HELP repro_server_err_del_total backend Delete failures
# TYPE repro_server_err_del_total counter
repro_server_err_del_total 0
# HELP repro_server_err_set_total backend Set failures
# TYPE repro_server_err_set_total counter
repro_server_err_set_total 0
# HELP repro_server_err_too_big_total frames over the size guard
# TYPE repro_server_err_too_big_total counter
repro_server_err_too_big_total 0
# HELP repro_server_frames_in_total request frames decoded
# TYPE repro_server_frames_in_total counter
repro_server_frames_in_total 10
# HELP repro_server_frames_out_total reply frames written
# TYPE repro_server_frames_out_total counter
repro_server_frames_out_total 9
# HELP repro_server_get_misses_total GET/MGET keys not found
# TYPE repro_server_get_misses_total counter
repro_server_get_misses_total 1
# HELP repro_server_get_seconds coalesced GET batch service time (backend call)
# TYPE repro_server_get_seconds summary
repro_server_get_seconds{quantile="0.5"} 0
repro_server_get_seconds{quantile="0.99"} 0
repro_server_get_seconds{quantile="0.999"} 0
repro_server_get_seconds_sum 0
repro_server_get_seconds_count 0
# HELP repro_server_gets_total GET requests served
# TYPE repro_server_gets_total counter
repro_server_gets_total 4
# HELP repro_server_mget_keys_total keys across all MGET requests
# TYPE repro_server_mget_keys_total counter
repro_server_mget_keys_total 3
# HELP repro_server_mget_seconds MGET service time (backend call)
# TYPE repro_server_mget_seconds summary
repro_server_mget_seconds{quantile="0.5"} 0
repro_server_mget_seconds{quantile="0.99"} 0
repro_server_mget_seconds{quantile="0.999"} 0
repro_server_mget_seconds_sum 0
repro_server_mget_seconds_count 0
# HELP repro_server_mgets_total MGET requests served
# TYPE repro_server_mgets_total counter
repro_server_mgets_total 1
# HELP repro_server_set_seconds SET service time (backend call, includes WAL commit)
# TYPE repro_server_set_seconds summary
repro_server_set_seconds{quantile="0.5"} 1.7e-08
repro_server_set_seconds{quantile="0.99"} 1.7e-08
repro_server_set_seconds{quantile="0.999"} 1.7e-08
repro_server_set_seconds_sum 3.4e-08
repro_server_set_seconds_count 2
# HELP repro_server_sets_total SET requests served
# TYPE repro_server_sets_total counter
repro_server_sets_total 2
# HELP repro_server_stats_total STATS requests served
# TYPE repro_server_stats_total counter
repro_server_stats_total 1
`
	if got != want {
		t.Errorf("STATS exposition drifted from the pinned format.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAppendTextUptimeUnit pins the unit rule: every time-valued
// repro_server_* series ends in _seconds and scales the nanoseconds its
// histogram records by 1e-9. Every *Nanos histogram of Counters records
// 17 ns twice, and every other histogram records 17 too; exactly the
// _seconds summaries must read 1.7e-08.
func TestAppendTextUptimeUnit(t *testing.T) {
	s := NewServer(nil, Options{})
	v := reflect.ValueOf(s.Counters()).Elem()
	nanos := 0
	for i := 0; i < v.NumField(); i++ {
		h, ok := v.Field(i).Addr().Interface().(*obs.Histogram)
		if !ok {
			continue
		}
		h.Record(17)
		h.Record(17)
		if strings.HasSuffix(v.Type().Field(i).Name, "Nanos") {
			nanos++
		}
	}
	text := string(s.Registry().AppendProm(nil))
	seconds := 0
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, `{quantile="0.5"} `)
		if !ok {
			continue
		}
		isSeconds := strings.HasSuffix(name, "_seconds")
		if isSeconds {
			seconds++
		}
		if isSeconds != (val == "1.7e-08") {
			t.Errorf("%s median reads %s after two 17 ns records", name, val)
		}
	}
	if seconds != nanos {
		t.Errorf("%d _seconds summaries, want one per *Nanos histogram (%d)", seconds, nanos)
	}
	// Below 32 a value records exactly, so _sum is exact too.
	for _, want := range []string{
		"\nrepro_server_set_seconds{quantile=\"0.5\"} 1.7e-08\n",
		"\nrepro_server_set_seconds_sum 3.4e-08\n",
		"\nrepro_server_set_seconds_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}
