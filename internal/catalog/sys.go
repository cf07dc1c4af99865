// Built-in system catalog streams: $sys.metrics and $sys.events turn
// the engine's own telemetry into ordinary rows, so every TweeQL
// operator — windows, GROUP BY, peak detection, INTO TABLE — monitors
// the engine with the same machinery it applies to tweets.
package catalog

import (
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// System stream names. The `$sys.` prefix is reserved: the lexer
// admits '$' in identifiers specifically so these parse in FROM.
const (
	SysMetricsStream = "$sys.metrics"
	SysEventsStream  = "$sys.events"
)

// SysMetricsSchema is the row shape of $sys.metrics: one sampled
// measurement. created_at doubles as the tuple's event time, so
// windows and INTO TABLE partition samples exactly like tweets.
var SysMetricsSchema = value.NewSchema(
	value.Field{Name: "name", Kind: value.KindString},
	value.Field{Name: "labels", Kind: value.KindString},
	value.Field{Name: "value", Kind: value.KindFloat},
	value.Field{Name: "created_at", Kind: value.KindTime},
)

// SysEventsSchema is the row shape of $sys.events: one lifecycle
// event (query created/dropped, scan restart, degradation, alert
// transition, fault firing).
var SysEventsSchema = value.NewSchema(
	value.Field{Name: "kind", Kind: value.KindString},
	value.Field{Name: "name", Kind: value.KindString},
	value.Field{Name: "detail", Kind: value.KindString},
	value.Field{Name: "created_at", Kind: value.KindTime},
)

// MetricTuple converts one sampled metric into a $sys.metrics row.
func MetricTuple(m obs.Metric) value.Tuple {
	return value.NewTuple(SysMetricsSchema, []value.Value{
		value.String(m.Name),
		value.String(m.Labels),
		value.Float(m.Value),
		value.Time(m.At),
	}, m.At)
}

// EventTuple converts one system event into a $sys.events row.
func EventTuple(ev obs.SysEvent) value.Tuple {
	return value.NewTuple(SysEventsSchema, []value.Value{
		value.String(ev.Kind),
		value.String(ev.Name),
		value.String(ev.Detail),
		value.Time(ev.At),
	}, ev.At)
}

// EnableSysStreams registers the $sys.metrics and $sys.events derived
// streams and returns them. Idempotent: if already registered (by an
// earlier call on the same catalog) the existing streams are returned,
// so samplers and event logs attached across restarts of the serving
// layer keep publishing into live subscriptions.
func (c *Catalog) EnableSysStreams() (metrics, events *DerivedStream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sources[SysMetricsStream]; ok {
		metrics = s.(*DerivedStream)
	} else {
		metrics = NewDerivedStream(SysMetricsStream, SysMetricsSchema)
		c.sources[SysMetricsStream] = metrics
	}
	if s, ok := c.sources[SysEventsStream]; ok {
		events = s.(*DerivedStream)
	} else {
		events = NewDerivedStream(SysEventsStream, SysEventsSchema)
		c.sources[SysEventsStream] = events
	}
	return metrics, events
}

// SysStreams returns the registered system streams, or nil, nil when
// EnableSysStreams was never called (self-observation disabled).
func (c *Catalog) SysStreams() (metrics, events *DerivedStream) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s, ok := c.sources[SysMetricsStream]; ok {
		metrics, _ = s.(*DerivedStream)
	}
	if s, ok := c.sources[SysEventsStream]; ok {
		events, _ = s.(*DerivedStream)
	}
	return metrics, events
}

// PublishMetrics converts sampled metrics to rows and publishes them
// on the $sys.metrics stream as one batch, in a fresh slice the stream
// keeps.
func PublishMetrics(d *DerivedStream, ms []obs.Metric) {
	if d == nil || len(ms) == 0 {
		return
	}
	rows := make([]value.Tuple, len(ms))
	for i, m := range ms {
		rows[i] = MetricTuple(m)
	}
	d.PublishBatch(rows)
}
