// Command tweeqld is the TweeQL serving daemon: one process that feeds
// a (simulated) live tweet stream, manages many named continuous
// queries through a JSON REST API, fans results out to SSE/NDJSON
// subscribers, snapshots persistent tables, and serves the TwitInfo
// dashboard — the paper's demo as a service instead of a REPL.
//
//	tweeqld -addr :8080 -data-dir ./data -scenario soccer -speedup 60
//
// Quickstart (see README "Serving layer"):
//
//	curl -X POST localhost:8080/api/queries \
//	  -d '{"name":"goals","sql":"SELECT text FROM twitter WHERE text CONTAINS '\''goal'\''"}'
//	curl -N localhost:8080/api/queries/goals/stream
//	curl localhost:8080/api/tables/goal_log/snapshot?limit=10
//	curl localhost:8080/metrics
//
// With -data-dir set, the query registry is journaled: kill the daemon,
// restart it with the same flags, and every registered query (and its
// INTO TABLE / INTO STREAM target) is restored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tweeql"
	"tweeql/internal/fault"
	"tweeql/internal/obs"
	"tweeql/internal/server"
	"tweeql/twitinfo"
)

// fatal logs the error and exits: the structured replacement for
// log.Fatal.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "error", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	scenario := flag.String("scenario", "soccer", "canned stream: soccer, earthquakes, obama, rivalry, background")
	seed := flag.Int64("seed", 1, "generator seed")
	duration := flag.Duration("duration", 0, "override scenario duration")
	speedup := flag.Float64("speedup", 60, "replay speed vs event time (0 = as fast as possible)")
	loop := flag.Bool("loop", true, "replay the scenario forever (false = one pass, then idle)")
	dataDir := flag.String("data-dir", "", "root for persistent tables AND the durable query registry (empty = everything in memory)")
	fsyncPolicy := flag.String("fsync", "seal", "persistent table fsync policy: none, seal, or flush")
	streamBuffer := flag.Int("stream-buffer", 256, "default per-subscriber row budget for /stream (override per request with ?buffer=)")
	blockDefault := flag.Bool("stream-block", false, "default /stream backpressure to block instead of drop (override with ?policy=)")
	maxRestarts := flag.Int("max-restarts", 5, "restart-on-error attempts per query before giving up")
	withTwitinfo := flag.Bool("twitinfo", true, "track a TwitInfo event for the scenario and mount the dashboard at /twitinfo/")
	faultSpec := flag.String("fault-spec", "", "arm deterministic fault points for chaos drills, e.g. 'scan.source.recv:error,times=3;udf.geocode.call:latency,d=2s,p=0.5' (empty = zero-cost disabled)")
	sysStreams := flag.Bool("sys-streams", true, "register the $sys.metrics/$sys.events self-observation streams and start the sampler (false = zero overhead, no alerting inputs)")
	sysSampleEvery := flag.Duration("sys-sample-every", 5*time.Second, "self-observation sampling interval")
	alertsFile := flag.String("alerts-file", "", "bootstrap alert rules from this JSON file (array of alert specs; existing names are skipped)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	traceSample := flag.Int("trace-sample", 64, "sample every Nth batch per operator into each query's trace ring (0 = off)")
	batchSize := flag.Int("batch-size", 0, "rows per pipeline batch (0 = engine default; 1 = one-row batches, so each row is delivered as soon as it is out, useful when alerting on output lag of slow queries)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tweeqld:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *faultSpec != "" {
		disarm, err := fault.ArmSpec(*faultSpec)
		if err != nil {
			fatal(logger, "bad -fault-spec", err)
		}
		defer disarm()
		logger.Warn("FAULT INJECTION ARMED", "spec", *faultSpec)
	}

	opts := tweeql.DefaultOptions()
	opts.DataDir = *dataDir
	opts.FsyncPolicy = *fsyncPolicy
	opts.TraceSampleEvery = *traceSample
	opts.SysStreams = *sysStreams
	opts.SysSampleEvery = *sysSampleEvery
	if *batchSize > 0 {
		opts.BatchSize = *batchSize
	}
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{
		Scenario: *scenario, Seed: *seed, Duration: *duration, Options: &opts,
	})
	if err != nil {
		fatal(logger, "engine start failed", err)
	}

	srv, err := server.New(eng.Core(), server.Options{
		DataDir:      *dataDir,
		Restart:      server.RestartPolicy{MaxRestarts: *maxRestarts},
		StreamBuffer: *streamBuffer,
		BlockDefault: *blockDefault,
		Logger:       logger,
	})
	if err != nil {
		fatal(logger, "server start failed", err)
	}
	if n := len(srv.Registry().List()); n > 0 {
		logger.Info("restored journaled queries", "count", n, "data_dir", *dataDir)
	}
	if *alertsFile != "" {
		specs, err := loadAlertSpecs(*alertsFile)
		if err != nil {
			fatal(logger, "bad -alerts-file", err)
		}
		added, err := srv.BootstrapAlerts(specs)
		if err != nil {
			fatal(logger, "alert bootstrap failed", err)
		}
		logger.Info("bootstrapped alerts", "file", *alertsFile, "added", added,
			"skipped", len(specs)-added)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mux := http.NewServeMux()
	mux.Handle("/api/", srv)
	mux.Handle("/metrics", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/readyz", srv)
	mux.Handle("/debug/bundle", srv)

	// TwitInfo rides along: the dashboard handler mounts under
	// /twitinfo/, fed by a tracking query on the same engine — one
	// process, both APIs, exactly the paper's TweeQL→TwitInfo stack.
	if *withTwitinfo {
		tstore := twitinfo.NewStore()
		tr, err := tstore.Create(scenarioEvent(*scenario))
		if err != nil {
			fatal(logger, "twitinfo event create failed", err)
		}
		if _, err := twitinfo.StartTracking(ctx, eng, tr); err != nil {
			fatal(logger, "twitinfo tracking failed", err)
		}
		// Ops dashboard: the same event-timeline view pointed at the
		// engine's own output-lag telemetry — peaks in this timeline are
		// latency spikes, labeled by the offending series.
		if *sysStreams {
			const opsMetric = "output_lag_p99"
			opsTr, err := tstore.Create(twitinfo.OpsEventConfig(opsMetric, *sysSampleEvery))
			if err != nil {
				fatal(logger, "twitinfo ops event create failed", err)
			}
			if _, err := twitinfo.StartOpsTracking(ctx, eng, opsTr, opsMetric); err != nil {
				fatal(logger, "twitinfo ops tracking failed", err)
			}
		}
		mux.Handle("/twitinfo/", http.StripPrefix("/twitinfo",
			twitinfo.Handler(tstore, twitinfo.DashboardOptions{})))
	}

	// Profiling endpoints are opt-in: pprof handlers expose heap and
	// goroutine internals, so they stay off unless asked for.
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof mounted", "path", "/debug/pprof/")
	}

	go feed(ctx, stream, *speedup, *loop)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", "http://"+*addr, "scenario", *scenario,
		"seed", *seed, "speedup", *speedup)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		fatal(logger, "http server failed", err)
	}

	// Graceful teardown, in dependency order: stop the feed (queries see
	// end-of-stream), stop registered cursors and drain their routing,
	// end subscriber streams, close HTTP, then flush persistent tables.
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stream.Close()
	if err := srv.Close(shutCtx); err != nil {
		logger.Error("server close failed", "error", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Error("http shutdown failed", "error", err)
	}
	if err := eng.Close(); err != nil {
		logger.Error("engine close failed", "error", err)
	}
	logger.Info("bye")
}

// feed publishes the scenario's pre-generated tweets through the
// streaming API, paced against event time by speedup, looping if asked.
// The hub stays open between passes so long-running queries keep their
// connections; Close happens in main's teardown.
func feed(ctx context.Context, stream *tweeql.Stream, speedup float64, loop bool) {
	tweets := stream.Tweets()
	if len(tweets) == 0 {
		return
	}
	const chunk = 64
	for {
		start := time.Now()
		base := tweets[0].CreatedAt
		for lo := 0; lo < len(tweets); lo += chunk {
			hi := min(lo+chunk, len(tweets))
			if speedup > 0 {
				due := start.Add(time.Duration(float64(tweets[lo].CreatedAt.Sub(base)) / speedup))
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
			}
			if ctx.Err() != nil {
				return
			}
			stream.PublishBatch(tweets[lo:hi])
		}
		if !loop {
			return
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
	}
}

// loadAlertSpecs reads an -alerts-file: either a bare JSON array of
// alert specs or an object with an "alerts" array (the same shape
// GET /api/alerts returns, so a snapshot can be replayed).
func loadAlertSpecs(path string) ([]server.AlertSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []server.AlertSpec
	if err := json.Unmarshal(data, &specs); err == nil {
		return specs, nil
	}
	var wrapped struct {
		Alerts []server.AlertSpec `json:"alerts"`
	}
	if err := json.Unmarshal(data, &wrapped); err != nil {
		return nil, fmt.Errorf("%s: want a JSON array of alert specs or {\"alerts\": [...]}: %w", path, err)
	}
	return wrapped.Alerts, nil
}

// scenarioEvent picks the TwitInfo event definition for the scenario:
// the shared §4 canned table (same dashboards as cmd/twitinfo), with a
// fallback for scenarios it doesn't cover.
func scenarioEvent(scenario string) twitinfo.EventConfig {
	for _, c := range twitinfo.CannedEvents() {
		if c.Scenario == scenario {
			return c.Event
		}
	}
	if scenario == "rivalry" {
		return twitinfo.EventConfig{Name: "Baseball rivalry",
			Keywords: []string{"yankees", "redsox", "baseball"}}
	}
	return twitinfo.EventConfig{Name: scenario, Keywords: []string{scenario}}
}
