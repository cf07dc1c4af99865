package catalog

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tweeql/internal/value"
)

// BenchmarkFanout measures the DerivedStream broadcast hot path —
// routing one row to every subscriber — at 1, 16, and 256 subscribers,
// per-tuple Publish vs PublishBatch(256). Drop-policy subscribers with
// nobody draining: publishers never block, so the numbers isolate the
// subscriber-set traversal + queue-append cost the serving layer's
// fan-out pays per row. The drained case is the serving shape instead:
// eight Block subscribers, each read by its own goroutine with Recv,
// fed 256-row batches (bench's isolatedFanout in miniature).
//
//	go test ./internal/catalog -run '^$' -bench=Fanout -benchtime=1s
func BenchmarkFanout(b *testing.B) {
	schema := value.NewSchema(
		value.Field{Name: "x", Kind: value.KindInt},
		value.Field{Name: "text", Kind: value.KindString},
	)
	const batchSize = 256
	batch := make([]value.Tuple, batchSize)
	for i := range batch {
		batch[i] = value.NewTuple(schema,
			[]value.Value{value.Int(int64(i)), value.String("the quick brown fox")},
			time.Unix(int64(i), 0))
	}
	for _, subs := range []int{1, 16, 256} {
		for _, mode := range []string{"tuple", "batch"} {
			b.Run(fmt.Sprintf("subs=%d/%s", subs, mode), func(b *testing.B) {
				b.ReportAllocs()
				d := NewDerivedStream("bench", schema)
				for i := 0; i < subs; i++ {
					sub := d.Subscribe(SubOptions{Buffer: 1024, Policy: DropOldest})
					defer sub.Cancel()
				}
				b.ResetTimer()
				if mode == "batch" {
					for n := 0; n < b.N; n += batchSize {
						d.PublishBatch(batch)
					}
				} else {
					for n := 0; n < b.N; n++ {
						d.Publish(batch[n%batchSize])
					}
				}
				b.StopTimer()
				d.CloseStream()
				rows := float64(b.N)
				if mode == "batch" {
					rows = float64((b.N + batchSize - 1) / batchSize * batchSize)
				}
				b.ReportMetric(rows*float64(subs)/b.Elapsed().Seconds(), "deliveries/s")
			})
		}
	}
	b.Run("subs=8/drained-block", func(b *testing.B) {
		const subs = 8
		b.ReportAllocs()
		d := NewDerivedStream("bench", schema)
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			sub := d.Subscribe(SubOptions{Buffer: 4096, Policy: Block})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer sub.Cancel()
				for {
					if _, err := sub.Recv(context.Background()); err != nil {
						return
					}
				}
			}()
		}
		b.ResetTimer()
		for n := 0; n < b.N; n += batchSize {
			d.PublishBatch(batch)
		}
		d.CloseStream()
		wg.Wait()
		b.StopTimer()
		rows := float64((b.N + batchSize - 1) / batchSize * batchSize)
		b.ReportMetric(rows*subs/b.Elapsed().Seconds(), "deliveries/s")
	})
}
