// Package tweeql is a stream query processor for microblog data: a Go
// reproduction of TweeQL ("Tweets as Data: Demonstration of TweeQL and
// TwitInfo", Marcus et al., SIGMOD 2011). It offers a SQL-like query
// language over a (simulated) Twitter streaming API, with UDFs for
// sentiment classification, geocoding, and entity extraction;
// selectivity-sampled filter pushdown; asynchronous execution of
// high-latency web-service operators; and confidence-triggered windowed
// aggregation. The paper's Eddies-style adaptive filter ordering is
// reproduced as experiment E9 (internal/eddy), not run by queries.
//
// Quick start:
//
//	eng, stream := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "soccer", Seed: 1})
//	cur, err := eng.Query(ctx, `SELECT sentiment(text), text FROM twitter
//	                            WHERE text CONTAINS 'goal' LIMIT 10`)
//	go stream.Replay()
//	for row := range cur.Rows() { fmt.Println(row) }
//
// The query runs in the loop that reads it: Rows is an iterator, so the
// replay publishes from another goroutine, and breaking out of the loop
// stops the query.
package tweeql

import (
	"context"
	"fmt"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/lang"
	"tweeql/internal/sentiment"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// Core data model, re-exported for API users.
type (
	// Tweet is one microblog post.
	Tweet = tweet.Tweet
	// Value is a dynamically typed scalar.
	Value = value.Value
	// Tuple is one result row.
	Tuple = value.Tuple
	// Schema describes result columns.
	Schema = value.Schema
	// Cursor is a handle on a running query; its Rows and Batches are
	// iterators that run the query as they are read.
	Cursor = core.Cursor
	// Options tune engine behaviour (batching, async workers...).
	Options = core.Options
	// AnalyzeOptions bound an ExplainAnalyze run (rows and wall clock).
	AnalyzeOptions = core.AnalyzeOptions
	// Statement is a parsed TweeQL statement.
	Statement = lang.SelectStmt
	// Filter is a streaming-API filter (one type per connection).
	Filter = twitterapi.Filter
	// Box is a geographic bounding box.
	Box = twitterapi.Box
	// LabeledTweet pairs a synthetic tweet with generator ground truth.
	LabeledTweet = firehose.LabeledTweet
	// GeocoderConfig tunes the simulated geocoding web service.
	GeocoderConfig = geocode.ServiceConfig
)

// DefaultOptions returns the production engine defaults.
func DefaultOptions() Options { return core.DefaultOptions() }

// Parse parses a TweeQL statement without executing it.
func Parse(sql string) (*Statement, error) { return lang.Parse(sql) }

// Engine executes TweeQL queries. Build one with New or NewSimulated.
type Engine struct {
	inner *core.Engine
}

// New creates an engine with the standard UDF library (sentiment,
// latitude/longitude/geocode, named_entities, urls/hashtags/mentions)
// over the given geocoding service config. Register a stream source
// before querying.
func New(opts Options, geo GeocoderConfig) (*Engine, error) {
	cat := catalog.New()
	svc := geocode.NewService(geo)
	cached := geocode.NewCachedClient(svc, 50_000, 0)
	deps := core.Deps{
		Geocoder:    cached,
		Analyzer:    sentiment.Default(),
		CallTimeout: opts.UDFCallTimeout,
		Retries:     opts.UDFRetries,
	}
	if err := core.RegisterStandardUDFs(cat, deps); err != nil {
		return nil, err
	}
	return &Engine{inner: core.NewEngine(cat, opts)}, nil
}

// Query parses and starts a TweeQL query.
func (e *Engine) Query(ctx context.Context, sql string) (*Cursor, error) {
	return e.inner.Query(ctx, sql)
}

// Core exposes the underlying core engine for this module's serving
// layer (internal/server, cmd/tweeqld). External module users cannot
// name the returned type; the public API surface is this package.
func (e *Engine) Core() *core.Engine { return e.inner }

// Close releases the engine's result tables, flushing and closing
// persistent backends. Engines whose Options.DataDir is set must be
// closed before the process exits (or before another engine reopens
// the same data dir): the active segment's buffered tail becomes
// durable here.
func (e *Engine) Close() error { return e.inner.Close() }

// Explain describes the plan (pushdown candidates, residual filters,
// aggregation shape) without running the query.
func (e *Engine) Explain(sql string) (string, error) { return e.inner.Explain(sql) }

// ExplainAnalyze runs the statement for a bounded window and renders
// the plan annotated with measured per-operator rows, selectivity, and
// latency percentiles plus the end-to-end watermark lag. A leading
// "EXPLAIN ANALYZE" keyword pair is accepted and stripped; INTO
// routing is suppressed (the run must not create streams or tables).
func (e *Engine) ExplainAnalyze(ctx context.Context, sql string, opts AnalyzeOptions) (string, error) {
	return e.inner.ExplainAnalyze(ctx, sql, opts)
}

// StripExplainAnalyze removes a leading EXPLAIN ANALYZE keyword pair,
// reporting whether one was present — for REPLs and APIs that route
// such statements to Engine.ExplainAnalyze.
func StripExplainAnalyze(sql string) (string, bool) { return core.StripExplainAnalyze(sql) }

// RegisterUDF adds a scalar UDF. arity < 0 means variadic; highLatency
// marks web-service-style functions that should use the asynchronous
// execution path.
func (e *Engine) RegisterUDF(name string, arity int, highLatency bool,
	fn func(ctx context.Context, args []Value) (Value, error)) error {
	return e.inner.Catalog().RegisterScalar(&catalog.ScalarUDF{
		Name: name, Arity: arity, HighLatency: highLatency, Fn: fn,
	})
}

// RegisterStatefulUDF adds a stateful UDF: factory is invoked once per
// query, and the returned function carries state across calls (the
// paper's peak detector is such a UDF). Calls run in stream order, one
// row at a time: each row's WHERE calls, in conjunct order, come before
// its SELECT (or aggregate) calls, and all of them before any call for
// the next row, so a query returns the same rows at any batch size. A
// select list that also calls a high-latency UDF therefore stays off
// the async worker pool and calls it inline, row by row.
func (e *Engine) RegisterStatefulUDF(name string,
	factory func() func(ctx context.Context, args []Value) (Value, error)) error {
	return e.inner.Catalog().RegisterStateful(name, func() catalog.ScalarFn {
		return factory()
	})
}

// Stream is a simulated Twitter streaming API endpoint bound to an
// engine's "twitter" source.
type Stream struct {
	hub    *twitterapi.Hub
	tweets []*Tweet
}

// Publish pushes one tweet through the streaming API.
func (s *Stream) Publish(t *Tweet) { s.hub.Publish(t) }

// PublishBatch pushes a chunk of tweets under one streaming-API lock —
// the daemon feeder's path: per-tweet Publish pays a lock round trip
// per tweet.
func (s *Stream) PublishBatch(ts []*Tweet) { s.hub.PublishBatch(ts) }

// Replay publishes the stream's pre-generated scenario tweets in
// timestamp order and closes the stream. Safe to call once.
func (s *Stream) Replay() {
	twitterapi.Replay(s.hub, s.tweets)
}

// Tweets returns the pre-generated scenario tweets (nil for empty
// streams).
func (s *Stream) Tweets() []*Tweet { return s.tweets }

// Close shuts the stream; open query connections see end-of-stream.
func (s *Stream) Close() { s.hub.Close() }

// SimConfig configures NewSimulated.
type SimConfig struct {
	// Scenario is one of "soccer", "earthquakes", "obama", "rivalry",
	// "background" (plain chatter), or "" (empty stream: publish your
	// own tweets).
	Scenario string
	// Seed drives the deterministic generator.
	Seed int64
	// Duration overrides the scenario's default length.
	Duration time.Duration
	// Options tune the engine; zero value means DefaultOptions.
	Options *Options
	// Geocoder tunes the simulated geocoding service; zero value means
	// instant responses (no simulated latency).
	Geocoder GeocoderConfig
	// SampleSize is the prefix of the scenario used for selectivity
	// estimates (default 2000 tweets).
	SampleSize int
}

// NewSimulated wires a complete simulated deployment: a scenario tweet
// stream, the streaming API, and an engine whose "twitter" source reads
// from it. Issue queries first, then call stream.Replay().
func NewSimulated(cfg SimConfig) (*Engine, *Stream, error) {
	gen, err := ScenarioConfig(cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Duration > 0 {
		gen.Duration = cfg.Duration
	}
	var tweets []*Tweet
	if cfg.Scenario != "" {
		tweets = firehose.Tweets(firehose.New(gen).Generate())
	}
	sampleN := cfg.SampleSize
	if sampleN <= 0 {
		sampleN = 2000
	}
	if sampleN > len(tweets) {
		sampleN = len(tweets)
	}

	opts := DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	if opts.SourceBuffer < len(tweets)+16 {
		// Replay is burst-mode: size the buffer so no tweets drop.
		opts.SourceBuffer = len(tweets) + 16
	}
	if cfg.Geocoder.Sleep == nil && cfg.Geocoder.BaseLatency == 0 {
		cfg.Geocoder.Sleep = func(time.Duration) {}
	}
	eng, err := New(opts, cfg.Geocoder)
	if err != nil {
		return nil, nil, err
	}
	hub := twitterapi.NewHub()
	eng.inner.Catalog().RegisterSource("twitter", catalog.NewTwitterSource(hub, tweets[:sampleN]))
	return eng, &Stream{hub: hub, tweets: tweets}, nil
}

// ScenarioConfig returns the named canned scenario's generator config —
// the §4 demo workloads plus helpers.
func ScenarioConfig(name string, seed int64) (firehose.Config, error) {
	switch name {
	case "soccer":
		return firehose.SoccerMatch(seed), nil
	case "earthquakes":
		return firehose.EarthquakeTimeline(seed), nil
	case "obama":
		return firehose.ObamaMonth(seed), nil
	case "rivalry":
		return firehose.BaseballRivalry(seed), nil
	case "background":
		return firehose.Config{Seed: seed, Duration: 10 * time.Minute, BaseRate: 30}, nil
	case "":
		return firehose.Config{Seed: seed, Duration: time.Second, BaseRate: 0}, nil
	default:
		return firehose.Config{}, fmt.Errorf("tweeql: unknown scenario %q (want soccer, earthquakes, obama, rivalry, background)", name)
	}
}

// GenerateScenario materializes a scenario's labeled tweet stream, for
// workloads and experiments.
func GenerateScenario(name string, seed int64) ([]*LabeledTweet, error) {
	cfg, err := ScenarioConfig(name, seed)
	if err != nil {
		return nil, err
	}
	return firehose.New(cfg).Generate(), nil
}

// Convenience constructors for values in UDFs.
var (
	// NullValue is the NULL value.
	NullValue = value.Null
	// BoolValue wraps a bool.
	BoolValue = value.Bool
	// IntValue wraps an int64.
	IntValue = value.Int
	// FloatValue wraps a float64.
	FloatValue = value.Float
	// StringValue wraps a string.
	StringValue = value.String
	// TimeValue wraps a time.Time.
	TimeValue = value.Time
)
