package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// TestLimitThroughNDJSON: a LIMIT query served over NDJSON delivers
// exactly n rows to the socket on every pipeline shape. The pump
// publishes the cursor's batches straight into the fan-out, so the
// batch the limit trims must arrive whole after the cut cancels the
// pipeline.
func TestLimitThroughNDJSON(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sql       string
		batchSize int
		n         int
	}{
		{"columnar", `SELECT id, text FROM twitter`, 64, 150},
		{"stateful", `SELECT running_n(text) AS n, id FROM twitter`, 64, 150},
		{"one_row_batches", `SELECT id, text FROM twitter`, 1, 150},
		{"aggregate", `SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`, 64, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New()
			hub := twitterapi.NewHub()
			defer hub.Close()
			cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
			if err := cat.RegisterStateful("running_n", func() catalog.ScalarFn {
				n := int64(0)
				return func(context.Context, []value.Value) (value.Value, error) {
					n++
					return value.Int(n), nil
				}
			}); err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.BatchSize = tc.batchSize
			opts.BatchFlushEvery = 2 * time.Millisecond
			eng := core.NewEngine(cat, opts)
			defer eng.Close()
			srv, err := New(eng, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			defer srv.Close(context.Background())

			createQuery(t, ts.URL, "lim", fmt.Sprintf("%s LIMIT %d", tc.sql, tc.n))
			nd := openStream(t, ts.URL+"/api/queries/lim/stream?format=ndjson", "application/x-ndjson")
			waitFor(t, 5*time.Second, "subscriber", func() bool { return getStatus(t, ts.URL, "lim").Subscribers == 1 })
			tweets := make([]*tweet.Tweet, 600)
			for i := range tweets {
				tweets[i] = mkTweet(int64(i+1), "t", int64(i))
			}
			hub.PublishBatch(tweets)
			waitFor(t, 10*time.Second, "query done", func() bool { return getStatus(t, ts.URL, "lim").State == StateDone })

			// Dropping the query ends the stream once its buffer drains.
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/queries/lim", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			body, err := io.ReadAll(nd)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(string(body), "\n"); got != tc.n {
				t.Errorf("LIMIT %d: %d NDJSON lines", tc.n, got)
			}
		})
	}
}
