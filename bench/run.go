package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"` // the metrics BENCHMARK.json names
	Extra     map[string]float64 `json:"extra"`   // diagnostics beside them
}

// phases splits a run of secs seconds into a warm-up, a capacity phase
// and a round-trip phase. Most of the run goes to the round trips,
// which give the bounded latency; goodput is a diagnostic.
func phases(secs float64) (warm, capacity, roundTrip time.Duration) {
	d := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }
	return d(0.05), d(0.1), d(0.85)
}

// rtSlice is the length of each alternating slice of round trips to
// served and to the echo reference.
const rtSlice = 500 * time.Millisecond

// startSetups starts served wl.starts times on dir, killing all but the
// last, and returns the last with each start's start-up time and peak
// RSS once recovered.
func startSetups(e *env, dir string, wl *workload, ks keyspace) (s *served, setups, rss []float64, err error) {
	for i := 0; i < wl.starts; i++ {
		if s != nil {
			s.kill()
		}
		var t float64
		if s, t, err = startServed(e.served, dir, wl, ks); err != nil {
			return nil, nil, nil, err
		}
		r, err := s.peakRSSMiB()
		if err != nil {
			s.kill()
			return nil, nil, nil, err
		}
		setups, rss = append(setups, t), append(rss, r)
	}
	return s, setups, rss, nil
}

// runWorkload measures wl's end-to-end metrics against a served process.
func runWorkload(e *env, wl workload, seed uint64, secs float64) (*result, error) {
	dir, err := os.MkdirTemp(e.tmp, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ks := newKeyspace(seed)
	if err := writeDataset(dir, ks, wl.pairs); err != nil {
		return nil, err
	}
	s, setups, rss, err := startSetups(e, dir, &wl, ks)
	if err != nil {
		return nil, err
	}
	defer func() { s.kill() }()

	cs, err := dialAll(s.addr, &wl, ks, seed)
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(cs) }()
	warm, capacity, roundTrip := phases(secs)
	m := mix{get: wl.get}
	if _, err := runClosed(cs, m, wl.depth, warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	goodput, err := runClosed(cs, m, wl.depth, capacity)
	if err != nil {
		return nil, fmt.Errorf("capacity phase: %w", err)
	}
	rt, err := runRoundTrips(e, cs, m, roundTrip)
	if err != nil {
		return nil, fmt.Errorf("round-trip phase: %w", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	live := int64(wl.pairs)
	if wl.pairs == 0 {
		for _, c := range cs {
			live += int64(len(c.written))
		}
	}

	res := &result{Workload: wl.name, Seed: seed, Extra: map[string]float64{}}
	if wl.pairs == 0 {
		// Crash served and read back every acknowledged write.
		s.kill()
		if s, _, err = startServed(e.served, dir, &wl, ks); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		swept := int64(0)
		for _, c := range cs {
			if err := c.redial(s.addr); err != nil {
				return nil, err
			}
			before := c.attempted
			if err := c.sweep(); err != nil {
				return nil, fmt.Errorf("read-back after restart: %w", err)
			}
			swept += c.attempted - before
		}
		res.Extra["sweep_requests"] = float64(swept)
	}

	res.Metrics = map[string]float64{
		"p50_vs_echo":              median(rt.ratio),
		"setup_s":                  median(setups),
		"peak_rss_mb":              median(rss),
		"disk_bytes_per_user_byte": float64(disk) / float64(live*(keyLen+valLen)),
	}
	res.Attempted, res.Failed = counts(cs)
	res.Correct = res.Failed == 0
	res.Extra["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.Extra["goodput_ops_s"] = goodput
	res.Extra["round_trips"] = float64(rt.n)
	res.Extra["echo_round_trips"] = float64(rt.echoN)
	for _, q := range []struct {
		name string
		v    []float64
	}{{"p50_us", rt.p50}, {"p90_us", rt.p90}, {"p99_us", rt.p99}, {"echo_p50_us", rt.echoP50}} {
		res.Extra[q.name] = median(q.v) / 1e3
	}
	return res, nil
}

// roundTripStats is what the round-trip phase measured, one value per
// slice pair: served's percentiles and the echo reference's p50, in
// ns, and served's p50 over the echo's.
type roundTripStats struct {
	ratio, p50, p90, p99, echoP50 []float64
	n, echoN                      int // round trips made
}

// runRoundTrips alternates slices of round trips to served, one request
// in flight per client, with slices of round trips to a fresh echo
// reference, for d in all. If m writes, the reference fsyncs what it
// echoes in a scratch directory beside served's.
func runRoundTrips(e *env, cs []*client, m mix, d time.Duration) (*roundTripStats, error) {
	frames := make([][]byte, len(cs))
	for i, c := range cs {
		frames[i] = c.echoFrame(m)
	}
	syncDir := ""
	if m.get < 0.5 {
		var err error
		if syncDir, err = os.MkdirTemp(e.tmp, "echo-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(syncDir)
	}
	ref, err := startEcho(frames, syncDir)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	st := &roundTripStats{}
	for range max(1, int(d/(2*rtSlice))) {
		lat, err := roundTrips(cs, m, rtSlice)
		if err != nil {
			return nil, err
		}
		echo, err := ref.roundTrips(rtSlice)
		if err != nil {
			return nil, err
		}
		p50, e50 := quantile(lat, 0.50), quantile(echo, 0.50)
		st.ratio = append(st.ratio, p50/e50)
		st.p50, st.echoP50 = append(st.p50, p50), append(st.echoP50, e50)
		st.p90 = append(st.p90, quantile(lat, 0.90))
		st.p99 = append(st.p99, quantile(lat, 0.99))
		st.n, st.echoN = st.n+len(lat), st.echoN+len(echo)
	}
	return st, nil
}

// addLatency records the percentiles of one request kind's latencies,
// by window, under names starting with kind.
func addLatency(extra map[string]float64, kind string, by [windows][]int64) {
	n := 0
	for _, lat := range by {
		n += len(lat)
	}
	if n == 0 {
		return
	}
	extra[kind+"_requests"] = float64(n)
	extra[kind+"_p50_us"] = windowed(by, 0.50) / 1e3
	extra[kind+"_p90_us"] = windowed(by, 0.90) / 1e3
	extra[kind+"_p99_us"] = windowed(by, 0.99) / 1e3
}

// addGen records how faithfully the generator offered its rate.
func addGen(extra map[string]float64, ol openStats) {
	slices.Sort(ol.lag)
	extra["gen.lag_p99_us"] = quantile(ol.lag, 0.99) / 1e3
	extra["gen.release_batch_mean"] = float64(len(ol.lag)) / float64(max(ol.wakes, 1))
}
