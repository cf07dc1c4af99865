package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/firehose"
	"tweeql/internal/value"
)

// TestSharedScanSiblingsReadPrivateBatches: a fan-out subscriber's Recv
// hands out the publisher's rows themselves, shared with every other
// subscriber, but two query shapes write their input batch in place
// (projection INTO a store table, and an async plan's filter). So a
// query on a shared scan must read a private copy. First, directly:
// writing every batch attach hands out leaves the published batch, and
// the run a sibling subscriber receives, as they were. Then end to end
// (run it with -race): a SELECT * … INTO TABLE on the store, which
// compacts its input in place, and a plain reader share one scan, and
// the reader's rows equal a private-scan run of the same query.
func TestSharedScanSiblingsReadPrivateBatches(t *testing.T) {
	t.Run("attach", func(t *testing.T) {
		schema := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
		ds := catalog.NewDerivedStream("scan", schema)
		scan := &SharedScan{mgr: newScanManager(), ds: ds, refs: 1, cancel: func() {}}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		read, _ := scan.attach(ctx, Options{BatchSize: 16, SourceBuffer: 1024}, &exec.Stats{})
		peer := ds.Subscribe(catalog.SubOptions{Buffer: 1024})
		defer peer.Cancel()

		batch := make([]value.Tuple, 100)
		for i := range batch {
			batch[i] = value.NewTuple(schema, []value.Value{value.Int(int64(i))}, time.Unix(int64(i), 0))
		}
		ds.PublishBatch(batch)
		run, err := peer.Recv(ctx)
		if err != nil || len(run) != len(batch) {
			t.Fatalf("sibling Recv = %d rows, %v", len(run), err)
		}
		for got := 0; got < len(batch); {
			b, ok := read(ctx)
			if !ok {
				t.Fatalf("attach ended after %d of %d rows", got, len(batch))
			}
			for i := range b {
				if &b[i] == &batch[got+i] {
					t.Fatalf("attach handed the query row %d of the shared run", got+i)
				}
				b[i] = value.Tuple{} // what an in-place writer may do
			}
			got += len(b)
		}
		for i := range batch {
			if x, err := run[i].Values[0].IntVal(); batch[i].Values == nil || err != nil || x != int64(i) {
				t.Fatalf("row %d of the published batch changed under a query writing its own input", i)
			}
		}
	})

	t.Run("engine", func(t *testing.T) {
		const readSQL = `SELECT id, text, followers FROM twitter`
		cfg := firehose.Config{Seed: 9, Duration: time.Hour, BaseRate: 10}

		private, replay := ablatedPersistEngine(t, cfg, Ablation{PrivateScans: true}, nil)
		cur, err := private.Query(context.Background(), readSQL)
		if err != nil {
			t.Fatal(err)
		}
		go replay()
		var want []string
		for r := range cur.Rows() {
			want = append(want, r.String())
		}
		if len(want) < 100 {
			t.Fatalf("private run read %d rows; the stream is too short to test", len(want))
		}

		eng, replay := persistEngine(t, cfg, func(o *Options) { o.DataDir = t.TempDir() })
		// followers > 500 is a residual the hub cannot take, so both
		// queries read the one unfiltered scan, and the INTO TABLE
		// query's projection compacts each input batch it reads.
		logCur, err := eng.Query(context.Background(), `SELECT * FROM twitter WHERE followers > 500 INTO TABLE sib`)
		if err != nil {
			t.Fatal(err)
		}
		readCur, err := eng.Query(context.Background(), readSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !logCur.ScanShared() || !readCur.ScanShared() || logCur.ScanSignature() != readCur.ScanSignature() {
			t.Fatalf("queries do not share one scan: %q shared=%v, %q shared=%v",
				logCur.ScanSignature(), logCur.ScanShared(), readCur.ScanSignature(), readCur.ScanShared())
		}
		go replay()
		var got []string
		for r := range readCur.Rows() {
			got = append(got, r.String())
		}
		<-logCur.Drained()
		if err := logCur.Stats().Err(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shared-scan reader got %d rows, private scan %d; first difference at row %d",
				len(got), len(want), firstDifference(got, want))
		}
		if n := eng.Catalog().Table("sib").Len(); n == 0 || n >= len(want) {
			t.Fatalf("INTO TABLE kept %d of %d rows; its filter must keep some and drop some", n, len(want))
		}
	})
}

// firstDifference is the first index at which a and b differ.
func firstDifference(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
