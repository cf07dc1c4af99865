package catalog

import (
	"context"
	"strings"
	"testing"
	"time"

	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

func TestSourceRegistry(t *testing.T) {
	c := New()
	if _, err := c.Source("twitter"); err == nil {
		t.Error("unknown source should error")
	}
	src := NewSliceSource(TweetSchema, nil)
	c.RegisterSource("Twitter", src)
	got, err := c.Source("TWITTER") // case-insensitive
	if err != nil || got != Source(src) {
		t.Errorf("Source = %v, %v", got, err)
	}
	if names := c.SourceNames(); len(names) != 1 || names[0] != "twitter" {
		t.Errorf("names = %v", names)
	}
}

func TestScalarRegistry(t *testing.T) {
	c := New()
	u := &ScalarUDF{Name: "f", Arity: 1, Fn: func(_ context.Context, a []value.Value) (value.Value, error) { return a[0], nil }}
	if err := c.RegisterScalar(u); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterScalar(u); err == nil {
		t.Error("duplicate should error")
	}
	if _, ok := c.Scalar("F"); !ok {
		t.Error("case-insensitive lookup failed")
	}
}

func TestStatefulRegistry(t *testing.T) {
	c := New()
	f := func() ScalarFn {
		return func(context.Context, []value.Value) (value.Value, error) { return value.Int(1), nil }
	}
	if err := c.RegisterStateful("s", f); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterStateful("S", f); err == nil {
		t.Error("duplicate stateful should error")
	}
	if _, ok := c.Stateful("S"); !ok {
		t.Error("stateful lookup failed")
	}
}

func TestTable(t *testing.T) {
	c := New()
	tab := c.Table("results")
	if tab != c.Table("RESULTS") {
		t.Error("table lookup not case-insensitive")
	}
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	tab.Append(value.NewTuple(s, []value.Value{value.Int(1)}, time.Time{}))
	if tab.Len() != 1 {
		t.Errorf("len = %d", tab.Len())
	}
	rows := tab.Rows()
	rows[0] = value.Tuple{} // mutating the copy must not affect the table
	if tab.Rows()[0].Schema == nil {
		t.Error("Rows returned shared slice")
	}
}

func TestMemBackendRing(t *testing.T) {
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	mk := func(i int) value.Tuple {
		return value.NewTuple(s, []value.Value{value.Int(int64(i))}, time.Unix(int64(i), 0))
	}
	m := NewMemBackend(5)
	var batch []value.Tuple
	for i := 0; i < 12; i++ {
		batch = append(batch, mk(i))
	}
	if err := m.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 {
		t.Fatalf("ring len = %d", m.Len())
	}
	var got []int64
	_ = m.Scan(time.Time{}, time.Time{}, 2, func(b []value.Tuple) error {
		for _, r := range b {
			v, _ := r.Get("x").IntVal()
			got = append(got, v)
		}
		return nil
	})
	// The newest 5 rows, in append order.
	want := []int64{7, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	// Time-ranged scan filters rows.
	got = got[:0]
	_ = m.Scan(time.Unix(9, 0), time.Unix(10, 0), 16, func(b []value.Tuple) error {
		for _, r := range b {
			v, _ := r.Get("x").IntVal()
			got = append(got, v)
		}
		return nil
	})
	if len(got) != 2 || got[0] != 9 || got[1] != 10 {
		t.Fatalf("ranged scan = %v", got)
	}
}

func TestTableAsSource(t *testing.T) {
	c := New()
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	tab := c.Table("t")
	for i := 0; i < 10; i++ {
		if err := tab.Append(value.NewTuple(s, []value.Value{value.Int(int64(i))}, time.Unix(int64(i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	// FROM resolution falls through to tables.
	src, err := c.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema() != s {
		t.Errorf("table source schema = %s", src.Schema())
	}
	batches, info, err := src.Open(context.Background(), OpenRequest{From: time.Unix(3, 0), To: time.Unix(6, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema != s {
		t.Error("OpenInfo schema mismatch")
	}
	var got []int64
	for _, r := range drain(t, batches, 1) {
		v, _ := r.Get("x").IntVal()
		got = append(got, v)
	}
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("ranged table scan = %v", got)
	}
	batches, _, err = src.Open(context.Background(), OpenRequest{Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drain(t, batches, 3)); n != 10 {
		t.Fatalf("batched rows = %d", n)
	}
	// A registered stream source shadows a table of the same name.
	c.RegisterSource("t", NewSliceSource(s, nil))
	if got, _ := c.Source("t"); got == Source(tab) {
		t.Error("stream source should shadow the table")
	}
}

// drain reads an open source to its end, checking the Source contract
// on the way: no batch is empty or holds more than size rows.
func drain(t *testing.T, batches <-chan []value.Tuple, size int) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	for b := range batches {
		if len(b) == 0 || len(b) > size {
			t.Fatalf("batch of %d rows, want 1..%d", len(b), size)
		}
		rows = append(rows, b...)
	}
	return rows
}

func TestTableFactory(t *testing.T) {
	c := New()
	calls := 0
	c.SetTableFactory(func(name string, create bool) (TableBackend, error) {
		calls++
		if !create {
			return nil, ErrNoTable
		}
		return NewMemBackend(4), nil
	})
	tab, err := c.OpenTable("x")
	if err != nil {
		t.Fatal(err)
	}
	if tab != c.Table("x") || calls != 1 {
		t.Errorf("OpenTable not memoized (calls=%d)", calls)
	}
	// Unknown FROM names probe the factory with create=false and still
	// report unknown stream.
	if _, err := c.Source("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Errorf("source err = %v", err)
	}
	// The factory's cap applies to tables it creates.
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	for i := 0; i < 10; i++ {
		_ = tab.Append(value.NewTuple(s, []value.Value{value.Int(int64(i))}, time.Time{}))
	}
	if tab.Len() != 4 {
		t.Errorf("capped table len = %d", tab.Len())
	}
	if err := c.CloseTables(); err != nil {
		t.Fatal(err)
	}
	if len(c.Table("x").Rows()) != 0 {
		t.Error("CloseTables should reset the namespace")
	}
}

func TestTweetTupleRoundTrip(t *testing.T) {
	orig := &tweet.Tweet{
		ID: 7, UserID: 3, Username: "u3", Text: "hello obama",
		CreatedAt: time.Unix(1000, 0).UTC(), Location: "nyc",
		HasGeo: true, Lat: 40.7, Lon: -74.0, Followers: 42, Retweet: true,
	}
	row := TweetTuple(orig)
	if got := row.Get("text").String(); got != "hello obama" {
		t.Errorf("text = %q", got)
	}
	back := ResolveTweetColumns(row.Schema).Tweet(row)
	if back.ID != orig.ID || back.Username != orig.Username || back.Text != orig.Text ||
		!back.CreatedAt.Equal(orig.CreatedAt) || back.Location != orig.Location ||
		back.HasGeo != orig.HasGeo || back.Lat != orig.Lat || back.Lon != orig.Lon ||
		back.Followers != orig.Followers || back.Retweet != orig.Retweet {
		t.Errorf("round trip lost data:\n  orig %+v\n  back %+v", orig, back)
	}
	// No-geo tweets have NULL lat/lon.
	nogeo := TweetTuple(&tweet.Tweet{ID: 1, CreatedAt: time.Unix(0, 0)})
	if !nogeo.Get("lat").IsNull() || !nogeo.Get("lon").IsNull() {
		t.Error("no-geo tweet should have NULL coordinates")
	}
}

func TestTwitterSourcePushdown(t *testing.T) {
	hub := twitterapi.NewHub()
	sample := []*tweet.Tweet{
		{ID: 1, Text: "obama obama", CreatedAt: time.Unix(0, 0)},
		{ID: 2, Text: "nothing", CreatedAt: time.Unix(1, 0)},
		{ID: 3, Text: "obama again", CreatedAt: time.Unix(2, 0)},
		{ID: 4, Text: "rare gem", CreatedAt: time.Unix(3, 0)},
	}
	src := NewTwitterSource(hub, sample)
	if src.Schema() != TweetSchema {
		t.Error("schema mismatch")
	}
	common := twitterapi.Filter{Track: []string{"obama"}}
	rare := twitterapi.Filter{Track: []string{"gem"}}
	batches, info, err := src.Open(context.Background(), OpenRequest{Candidates: []twitterapi.Filter{common, rare}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Pushed || len(info.Chosen.Track) != 1 || info.Chosen.Track[0] != "gem" {
		t.Errorf("pushdown chose %+v", info.Chosen)
	}
	go func() {
		hub.Publish(&tweet.Tweet{ID: 10, Text: "a gem!", CreatedAt: time.Unix(10, 0)})
		hub.Publish(&tweet.Tweet{ID: 11, Text: "obama", CreatedAt: time.Unix(11, 0)})
		hub.Close()
	}()
	got := drain(t, batches, 1)
	if len(got) != 1 || got[0].Get("id").String() != "10" {
		t.Errorf("rows = %v", got)
	}
}

func TestTwitterSourceNoCandidates(t *testing.T) {
	hub := twitterapi.NewHub()
	src := NewTwitterSource(hub, nil)
	batches, info, err := src.Open(context.Background(), OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Pushed || info.Schema != TweetSchema {
		t.Errorf("full-stream open info = %+v", info)
	}
	go func() {
		hub.Publish(&tweet.Tweet{ID: 1, Text: "anything", CreatedAt: time.Unix(0, 0)})
		hub.Close()
	}()
	if n := len(drain(t, batches, 1)); n != 1 {
		t.Errorf("full-stream rows = %d", n)
	}
}

func TestSliceSource(t *testing.T) {
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	rows := []value.Tuple{
		value.NewTuple(s, []value.Value{value.Int(1)}, time.Unix(1, 0)),
		value.NewTuple(s, []value.Value{value.Int(2)}, time.Unix(2, 0)),
	}
	src := NewSliceSource(s, rows)
	out, _, err := src.Open(context.Background(), OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drain(t, out, 1)); n != 2 {
		t.Errorf("rows = %d", n)
	}
	// Cancellation stops emission: a source opened with an already
	// cancelled context emits nothing (the emit loop checks ctx before
	// every send), so draining needs no sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, _ = src.Open(ctx, OpenRequest{})
	if n := len(drain(t, out, 1)); n != 0 {
		t.Errorf("cancelled source emitted %d rows", n)
	}
}

func TestDerivedStream(t *testing.T) {
	s := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	d := NewDerivedStream("d", s)
	if d.Schema() != s {
		t.Error("schema lost")
	}
	out, _, err := d.Open(context.Background(), OpenRequest{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.PublishBatch([]value.Tuple{
		value.NewTuple(s, []value.Value{value.Int(1)}, time.Unix(0, 0)),
		value.NewTuple(s, []value.Value{value.Int(2)}, time.Unix(1, 0)),
		value.NewTuple(s, []value.Value{value.Int(3)}, time.Unix(2, 0)),
	})
	d.CloseStream()
	d.CloseStream() // double close is safe
	if n := len(drain(t, out, 2)); n != 3 {
		t.Errorf("subscriber got %d rows", n)
	}
	// Opening after close yields an empty, closed stream.
	out2, _, err := d.Open(context.Background(), OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-out2; ok {
		t.Error("post-close subscription should be empty")
	}
}
