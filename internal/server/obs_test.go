package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tweeql/internal/obs"
)

// scrape GETs path and returns status + body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsLint scrapes /metrics from a live deployment with running
// queries and data flowing, and runs the in-repo promtool-style linter
// over it. The exposition must be violation-free and carry only the
// normalized family names.
func TestMetricsLint(t *testing.T) {
	t.Run("normalized", func(t *testing.T) {
		eng, hub, _ := newTestDeployment(t, t.TempDir())
		defer eng.Close()
		defer hub.Close()
		srv, err := New(eng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close(t.Context())
		ts := httptest.NewServer(srv)
		defer ts.Close()

		createQuery(t, ts.URL, "loud", `SELECT text FROM twitter WHERE followers > 2`)
		createQuery(t, ts.URL, "logged", `SELECT text FROM twitter WHERE followers > 4 INTO TABLE obs_log`)
		for i := int64(1); i <= 40; i++ {
			hub.Publish(mkTweet(i, "observable", 1000+i))
		}
		waitFor(t, 5*time.Second, "rows ingested", func() bool {
			return getStatus(t, ts.URL, "loud").RowsIn >= 40
		})

		code, body := scrape(t, ts.URL, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: %d", code)
		}
		if errs := obs.LintMetrics(body); len(errs) != 0 {
			for _, e := range errs {
				t.Error(e)
			}
			t.Fatalf("/metrics has %d lint violations", len(errs))
		}
		for _, want := range []string{
			"tweeqld_stage_latency_seconds_bucket",
			"tweeqld_query_output_lag_seconds_bucket",
			"tweeqld_table_append_latency_seconds_bucket",
			"tweeqld_query_rows_per_second",
			"tweeqld_query_restart_streak",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
		for _, old := range []string{"tweeqld_query_rows_per_sec{", "tweeqld_query_restarts{"} {
			if strings.Contains(body, old) {
				t.Errorf("/metrics still emits pre-rename family %s", old)
			}
		}
	})
}

// TestProfileAndTraceEndpoints: /profile serves the per-operator JSON
// snapshot consistent with what the run did; /trace serves JSONL and
// Chrome trace-event exports; both 404 on unknown queries.
func TestProfileAndTraceEndpoints(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	defer hub.Close()
	defer srv.Close(t.Context())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	createQuery(t, ts.URL, "prof", `SELECT text FROM twitter WHERE followers > 10`)
	for i := int64(1); i <= 64; i++ {
		hub.Publish(mkTweet(i, "profiled", 2000+i))
	}
	waitFor(t, 5*time.Second, "rows ingested", func() bool {
		return getStatus(t, ts.URL, "prof").RowsIn >= 64
	})

	code, body := scrape(t, ts.URL, "/api/queries/prof/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile: %d %s", code, body)
	}
	var prof struct {
		Query   string `json:"query"`
		Profile string `json:"profile_id"`
		Stages  []struct {
			Kind        string  `json:"kind"`
			RowsIn      int64   `json:"rows_in"`
			RowsOut     int64   `json:"rows_out"`
			Selectivity float64 `json:"selectivity"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &prof); err != nil {
		t.Fatalf("profile JSON: %v\n%s", err, body)
	}
	if prof.Query != "prof" || prof.Profile == "" {
		t.Fatalf("profile identity = %q/%q", prof.Query, prof.Profile)
	}
	var sawFilter bool
	for _, st := range prof.Stages {
		if st.Kind == "filter" {
			sawFilter = true
			if st.RowsIn != 64 || st.RowsOut != 54 {
				t.Errorf("filter rows = %d/%d, want 64/54", st.RowsIn, st.RowsOut)
			}
			if st.Selectivity <= 0.8 || st.Selectivity >= 0.9 {
				t.Errorf("filter selectivity = %g, want 54/64", st.Selectivity)
			}
		}
	}
	if !sawFilter {
		t.Fatalf("no filter stage in profile:\n%s", body)
	}

	code, body = scrape(t, ts.URL, "/api/queries/prof/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: %d", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace JSONL line %q: %v", line, err)
		}
	}

	code, body = scrape(t, ts.URL, "/api/queries/prof/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("/trace?format=chrome: %d", code)
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(body), &arr); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(arr) == 0 {
		t.Fatal("chrome trace is empty (expected at least process metadata)")
	}

	if code, _ := scrape(t, ts.URL, "/api/queries/nope/profile"); code != http.StatusNotFound {
		t.Fatalf("unknown query profile: %d, want 404", code)
	}
	if code, _ := scrape(t, ts.URL, "/api/queries/prof/trace?format=weird"); code != http.StatusBadRequest {
		t.Fatalf("bad trace format: %d, want 400", code)
	}
}
