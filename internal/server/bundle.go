package server

import (
	"archive/zip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"time"

	"tweeql/internal/fault"
	"tweeql/internal/obs"
)

// bundleEventCount bounds the $sys.events excerpt in a bundle; the
// full ring stays queryable via SELECT over $sys.events.
const bundleEventCount = 512

// debugBundle serves a one-shot diagnostic archive:
//
//	GET /debug/bundle
//
// The zip holds everything a bug report needs from one moment in time:
// manifest.json (build identity, capture time, file index), config.json
// (engine + server options), goroutines.txt (full stack dump),
// metrics.txt (the same exposition /metrics serves), queries.json and
// alerts.json (registry status), profiles/<query>.json (per-operator
// snapshots, stale ones included), traces/<query>.jsonl (sampled batch
// spans), events.json (recent $sys.events), and faults.json (armed
// fault points). Collection is read-only: nothing pauses or resets.
func (s *Server) debugBundle(w http.ResponseWriter, _ *http.Request) {
	now := time.Now().UTC()
	version, goversion, revision := buildInfo()

	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", "tweeqld-bundle-"+now.Format("20060102T150405Z")+".zip"))
	zw := zip.NewWriter(w)
	defer zw.Close()

	var files []string
	addJSON := func(name string, v any) {
		f, err := zw.Create(name)
		if err != nil {
			return
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if enc.Encode(v) == nil {
			files = append(files, name)
		}
	}
	addText := func(name string, fill func(f io.Writer) error) {
		f, err := zw.Create(name)
		if err != nil {
			return
		}
		if fill(f) == nil {
			files = append(files, name)
		}
	}

	addJSON("config.json", map[string]any{
		"engine": s.eng.Options(),
		"server": map[string]any{
			"data_dir":       s.opts.DataDir,
			"stream_buffer":  s.opts.StreamBuffer,
			"block_default":  s.opts.BlockDefault,
			"snapshot_limit": s.opts.SnapshotLimit,
			"restart": map[string]any{
				"max_restarts":  s.opts.Restart.MaxRestarts,
				"backoff":       s.opts.Restart.Backoff.String(),
				"healthy_after": s.opts.Restart.HealthyAfter.String(),
			},
		},
	})
	addText("goroutines.txt", func(f io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(f, 2)
	})
	addText("metrics.txt", func(f io.Writer) error {
		_, err := f.Write([]byte(s.renderMetrics()))
		return err
	})

	statuses := s.reg.List()
	addJSON("queries.json", map[string]any{"queries": statuses})
	if s.alerts != nil {
		addJSON("alerts.json", map[string]any{"alerts": s.alerts.List()})
	}

	for _, st := range statuses {
		q, ok := s.reg.Get(st.Name)
		if !ok {
			continue
		}
		prof, stale := q.ProfileForServing()
		if prof == nil {
			continue
		}
		snap := prof.Snapshot()
		addJSON("profiles/"+st.Name+".json", map[string]any{
			"query":      st.Name,
			"profile_id": snap.ID,
			"stale":      stale,
			"stages":     snap.Stages,
			"output_lag": snap.Lag,
		})
		if tr := prof.Tracer(); tr != nil {
			if events := tr.Events(); len(events) > 0 {
				name := st.Name // capture for the closure below
				addText("traces/"+name+".jsonl", func(f io.Writer) error {
					return obs.WriteJSONL(f, events)
				})
			}
		}
	}

	if s.sys != nil {
		addJSON("events.json", map[string]any{
			"total":  s.sys.eventLog.Total(),
			"recent": s.sys.eventLog.Recent(bundleEventCount),
		})
	}
	if pts := fault.Points(); len(pts) > 0 {
		addJSON("faults.json", map[string]any{"points": pts})
	}

	// Manifest last, so it can index everything that actually landed.
	addJSON("manifest.json", map[string]any{
		"created_at": now.Format(time.RFC3339Nano),
		"version":    version,
		"goversion":  goversion,
		"revision":   revision,
		"uptime":     time.Since(s.started).Round(time.Millisecond).String(),
		"queries":    len(statuses),
		"files":      files,
	})
}
