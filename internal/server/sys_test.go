package server

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// fieldStr and fieldNum read a named column with the kind checked
// first, honoring the compiled-kernel accessor contract (valuekind) in
// assertions: a missing or drifted column reads as the zero value.
func fieldStr(row value.Tuple, col string) string {
	if v := row.Get(col); v.Kind() == value.KindString {
		return v.Str()
	}
	return ""
}

func fieldNum(row value.Tuple, col string) float64 {
	if v := row.Get(col); v.Kind() == value.KindFloat || v.Kind() == value.KindInt {
		return v.Num()
	}
	return 0
}

// recvSome returns one Recv worth of rows, or nil if none arrive
// within d — callers loop with their own deadline.
func recvSome(t *testing.T, sub *catalog.Subscription, d time.Duration) []value.Tuple {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	rows, err := sub.Recv(ctx)
	if err != nil {
		return nil
	}
	return rows
}

// TestSysObserverCollect drives one sample by hand and checks the rows
// landing on $sys.metrics: the query census, per-query flow counters,
// and interval (not cumulative) lag quantiles.
func TestSysObserverCollect(t *testing.T) {
	eng, hub, srv := newSysDeployment(t, "", time.Hour) // sample manually
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createQuery(t, ts.URL, "watched", `SELECT text FROM twitter WHERE followers > 2`)
	for i := int64(1); i <= 30; i++ {
		hub.Publish(mkTweet(i, "observable", 1000+i))
	}
	// All 30 rows must have reached the query before the sample: the
	// first rows out can leave while a second source batch is still
	// carrying the rest.
	waitFor(t, 10*time.Second, "all rows ingested", func() bool {
		return getStatus(t, ts.URL, "watched").RowsIn >= 30
	})

	mstream, _ := eng.Catalog().SysStreams()
	if mstream == nil {
		t.Fatal("sys streams not registered")
	}
	sub := mstream.Subscribe(catalog.SubOptions{Buffer: 1024})
	defer sub.Cancel()
	srv.sys.sampler.SampleOnce()

	byName := map[string][]value.Tuple{}
	deadline := time.Now().Add(10 * time.Second)
	for len(byName["queries"]) == 0 || len(byName["query_rows_in"]) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sample rows incomplete: %v", keys(byName))
		}
		for _, row := range recvSome(t, sub, 2*time.Second) {
			n := fieldStr(row, "name")
			byName[n] = append(byName[n], row)
		}
	}
	// Census: exactly one row per lifecycle state, running count = 1.
	states := map[string]float64{}
	for _, row := range byName["queries"] {
		states[fieldStr(row, "labels")] = fieldNum(row, "value")
	}
	if states[`state="running"`] != 1 {
		t.Errorf("census %v, want running=1", states)
	}
	var in float64
	for _, row := range byName["query_rows_in"] {
		if fieldStr(row, "labels") == `query="watched"` {
			in = fieldNum(row, "value")
		}
	}
	if in < 30 {
		t.Errorf("query_rows_in{query=\"watched\"} = %g, want >= 30", in)
	}

	// Second sample with no new rows: the interval lag row count must
	// drop to zero (cumulative counters would repeat the old total).
	srv.sys.sampler.SampleOnce()
	found := false
	deadline = time.Now().Add(10 * time.Second)
	for !found && time.Now().Before(deadline) {
		for _, row := range recvSome(t, sub, 2*time.Second) {
			if fieldStr(row, "name") == "output_lag_rows" &&
				fieldStr(row, "labels") == `query="watched"` {
				if got := fieldNum(row, "value"); got != 0 {
					t.Errorf("interval lag rows after idle sample = %g, want 0", got)
				}
				found = true
			}
		}
	}
	if !found {
		t.Error("second sample carried no output_lag_rows row")
	}
}

// TestSysEventsLifecycle: registry lifecycle lands on $sys.events.
func TestSysEventsLifecycle(t *testing.T) {
	eng, hub, srv := newSysDeployment(t, "", time.Hour)
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, estream := eng.Catalog().SysStreams()
	sub := estream.Subscribe(catalog.SubOptions{Buffer: 64})
	defer sub.Cancel()

	createQuery(t, ts.URL, "ephemeral", `SELECT text FROM twitter`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/queries/ephemeral", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	kinds := map[string]bool{}
	waitFor(t, 10*time.Second, "lifecycle events", func() bool {
		for _, row := range recvSome(t, sub, 2*time.Second) {
			kinds[fieldStr(row, "kind")] = true
		}
		return kinds["query_created"] && kinds["query_dropped"]
	})
	// The ring mirror feeds the debug bundle.
	if srv.sys.eventLog.Total() < 2 {
		t.Errorf("event log total %d, want >= 2", srv.sys.eventLog.Total())
	}
}

// TestSysMetricsIntoTableRestart is the acceptance drill: log the
// engine's own metrics durably with INTO TABLE, restart the
// deployment, and read the history back — plus new samples appended by
// the restored query.
func TestSysMetricsIntoTableRestart(t *testing.T) {
	dir := t.TempDir()
	eng, hub, srv := newSysDeployment(t, dir, 10*time.Millisecond)
	ts := httptest.NewServer(srv)

	createQuery(t, ts.URL, "syslog",
		`SELECT name, labels, value, created_at FROM $sys.metrics INTO TABLE sys_log`)
	var snap snapshotResp
	waitFor(t, 20*time.Second, "system metrics logged", func() bool {
		if code := getJSON(t, ts.URL+"/api/tables/sys_log/snapshot?limit=10000", &snap); code != http.StatusOK {
			return false
		}
		return snap.Count >= 20
	})
	before := snap.Count
	ts.Close()
	if err := srv.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, hub2, srv2 := newSysDeployment(t, dir, 10*time.Millisecond)
	defer eng2.Close()
	defer hub2.Close()
	defer srv2.Close(t.Context())
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	// History survived the restart...
	if code := getJSON(t, ts2.URL+"/api/tables/sys_log/snapshot?limit=10000", &snap); code != http.StatusOK {
		t.Fatalf("snapshot after restart: %d", code)
	}
	if snap.Count == 0 {
		t.Fatal("system metric history lost across restart")
	}
	// ...and the journaled query resumed logging new samples on top.
	waitFor(t, 20*time.Second, "logging resumed", func() bool {
		getJSON(t, ts2.URL+"/api/tables/sys_log/snapshot?limit=10000", &snap)
		return snap.Count > before
	})
	for _, col := range []string{"name", "labels", "value", "created_at"} {
		found := false
		for _, c := range snap.Columns {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Errorf("sys_log missing column %q: %v", col, snap.Columns)
		}
	}
}

// TestBuildInfoAndLint: the identity gauges are present and the full
// exposition — alerts, $sys layer and all — stays promlint-clean.
func TestBuildInfoAndLint(t *testing.T) {
	eng, hub, srv := newSysDeployment(t, "", time.Hour)
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createQuery(t, ts.URL, "loud", `SELECT text FROM twitter`)
	resp := postJSON(t, ts.URL+"/api/alerts", AlertSpec{
		Name: "lag", SQL: `SELECT name, labels, value, created_at FROM $sys.metrics`,
		Condition: CondAbove, Threshold: 1})
	resp.Body.Close()
	srv.sys.sampler.SampleOnce()

	code, body := scrape(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"tweeqld_build_info{version=",
		`goversion="go`,
		"process_start_time_seconds ",
		`tweeqld_alert_state{alert="lag"}`,
		`tweeqld_alert_transitions_total{alert="lag"}`,
		`tweeqld_hub_publish_waits_total{source="twitter"} `,
		`tweeqld_hub_publish_wait_seconds_total{source="twitter"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, v := range obs.LintMetrics(body) {
		t.Errorf("promlint violation: %v", v)
	}
}

// TestProfileServedStale covers the satellite fix: paused and
// completed queries keep serving their last run's profile with
// "stale": true instead of a 409.
func TestProfileServedStale(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createQuery(t, ts.URL, "pausable", `SELECT text FROM twitter`)
	for i := int64(1); i <= 10; i++ {
		hub.Publish(mkTweet(i, "profiled", 1000+i))
	}
	waitFor(t, 10*time.Second, "rows flowed", func() bool {
		return getStatus(t, ts.URL, "pausable").RowsOut > 0
	})

	var prof struct {
		Stale  bool             `json:"stale"`
		Stages []map[string]any `json:"stages"`
	}
	if code := getJSON(t, ts.URL+"/api/queries/pausable/profile", &prof); code != http.StatusOK {
		t.Fatalf("live profile: %d", code)
	}
	if prof.Stale || len(prof.Stages) == 0 {
		t.Fatalf("live profile: stale=%v stages=%d, want fresh with stages", prof.Stale, len(prof.Stages))
	}

	if resp := postJSON(t, ts.URL+"/api/queries/pausable/pause", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/api/queries/pausable/profile", &prof); code != http.StatusOK {
		t.Fatalf("paused profile: %d, want 200 (stale)", code)
	}
	if !prof.Stale || len(prof.Stages) == 0 {
		t.Fatalf("paused profile: stale=%v stages=%d, want stale with stages", prof.Stale, len(prof.Stages))
	}

	if resp := postJSON(t, ts.URL+"/api/queries/pausable/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d", resp.StatusCode)
	}
	waitFor(t, 10*time.Second, "fresh profile after resume", func() bool {
		return getJSON(t, ts.URL+"/api/queries/pausable/profile", &prof) == http.StatusOK && !prof.Stale
	})
}

// TestDebugBundle downloads the diagnostic archive and validates its
// manifest against the files actually present.
func TestDebugBundle(t *testing.T) {
	eng, hub, srv := newSysDeployment(t, "", time.Hour)
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createQuery(t, ts.URL, "bundled", `SELECT text FROM twitter`)
	resp := postJSON(t, ts.URL+"/api/alerts", AlertSpec{
		Name: "lag", SQL: `SELECT name, labels, value, created_at FROM $sys.metrics`,
		Condition: CondAbove, Threshold: 1})
	resp.Body.Close()
	for i := int64(1); i <= 10; i++ {
		hub.Publish(mkTweet(i, "bundle me", 1000+i))
	}
	waitFor(t, 10*time.Second, "rows flowed", func() bool {
		return getStatus(t, ts.URL, "bundled").RowsOut > 0
	})
	srv.sys.sampler.SampleOnce()

	bresp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK || bresp.Header.Get("Content-Type") != "application/zip" {
		t.Fatalf("bundle: %d %s", bresp.StatusCode, bresp.Header.Get("Content-Type"))
	}
	blob, err := io.ReadAll(bresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	present := map[string]*zip.File{}
	for _, f := range zr.File {
		present[f.Name] = f
	}
	for _, want := range []string{
		"manifest.json", "config.json", "goroutines.txt", "metrics.txt",
		"queries.json", "alerts.json", "events.json", "profiles/bundled.json",
	} {
		if present[want] == nil {
			t.Errorf("bundle missing %s (have %v)", want, keys(present))
		}
	}

	readEntry := func(name string) []byte {
		f := present[name]
		if f == nil {
			t.Fatalf("no %s in bundle", name)
		}
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var manifest struct {
		Version   string   `json:"version"`
		GoVersion string   `json:"goversion"`
		Files     []string `json:"files"`
		Queries   int      `json:"queries"`
	}
	if err := json.Unmarshal(readEntry("manifest.json"), &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Queries != 1 || manifest.GoVersion == "" {
		t.Errorf("manifest: %+v", manifest)
	}
	// Every manifest entry must exist in the archive, and vice versa
	// (the manifest indexes itself last, so it is the one exception).
	for _, f := range manifest.Files {
		if present[f] == nil {
			t.Errorf("manifest lists %s but archive lacks it", f)
		}
	}
	if len(manifest.Files) != len(present)-1 {
		t.Errorf("manifest indexes %d files, archive has %d (+manifest)", len(manifest.Files), len(present)-1)
	}

	if !strings.Contains(string(readEntry("metrics.txt")), "tweeqld_build_info") {
		t.Error("bundle metrics.txt missing build info")
	}
	if !strings.Contains(string(readEntry("goroutines.txt")), "goroutine") {
		t.Error("bundle goroutines.txt is not a stack dump")
	}
	var prof struct {
		Stale  bool `json:"stale"`
		Stages []struct {
			Kind string `json:"kind"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(readEntry("profiles/bundled.json"), &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Stages) == 0 {
		t.Error("bundled profile has no stages")
	}
}

func keys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
