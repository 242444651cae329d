package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cmap"
	"repro/internal/wire"
)

// TestStatsMatchesMetrics wires served's pieces together on loopback,
// as main does, and requires the STATS verb and the admin listener's
// /metrics to expose the same series in the same order, with the same
// values for counters no request moves between the two reads.
func TestStatsMatchesMetrics(t *testing.T) {
	dm := repro.NewDurableMetrics()
	m, err := openStore(t.TempDir(), repro.WithShards(4), repro.WithBuckets(64),
		repro.WithWALSync(false), repro.WithDurableMetrics(dm))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapMx := cmap.NewMetrics()
	m.Map().SetMetrics(mapMx)
	srv := wire.NewServer(&backend{m: m}, wire.Options{})
	buildRegistry(srv.Registry(), m, dm, mapMx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := serveAdmin(adminLn, srv.Registry(), m, t.Logf)
	defer admin.Close()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sets = 5
	keys := make([][]byte, sets)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := c.Set(keys[i], []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := c.Get(keys[0]); err != nil || !ok {
		t.Fatalf("GET = (%v, %v)", ok, err)
	}
	mget := append(keys[1:4:4], []byte("absent"))
	if hits, err := c.MGet(mget, make([][]byte, len(mget)), make([]bool, len(mget))); err != nil || hits != 3 {
		t.Fatalf("MGET = (%d, %v), want 3 hits", hits, err)
	}
	if ok, err := c.Delete(keys[4]); err != nil || !ok {
		t.Fatalf("DEL = (%v, %v)", ok, err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + adminLn.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)

	// Each body's lines with sample values dropped: # HELP and # TYPE
	// lines whole, sample lines up to their value. Values differ (the
	// STATS request itself moved some counters); names and order may not.
	shape := func(text string) []string {
		lines := strings.Split(text, "\n")
		for i, line := range lines {
			if j := strings.LastIndexByte(line, ' '); j >= 0 && !strings.HasPrefix(line, "#") {
				lines[i] = line[:j]
			}
		}
		return lines
	}
	ss, ms := strings.Join(shape(stats), "\n"), strings.Join(shape(metrics), "\n")
	if ss != ms {
		t.Errorf("STATS and /metrics carry different series:\nSTATS:\n%s\n/metrics:\n%s", ss, ms)
	}
	if !strings.HasPrefix(stats, "# HELP ") {
		t.Errorf("STATS body does not open with a # HELP line: %.60q", stats)
	}
	for _, want := range []string{
		fmt.Sprintf("repro_server_sets_total %d", sets),
		fmt.Sprintf("repro_server_mget_keys_total %d", len(mget)),
	} {
		for name, text := range map[string]string{"STATS": stats, "/metrics": metrics} {
			if !strings.Contains(text, "\n"+want+"\n") {
				t.Errorf("%s lacks the line %q", name, want)
			}
		}
	}
	t.Logf("%d series, STATS body %d bytes", strings.Count(stats, "# TYPE "), len(stats))
}
