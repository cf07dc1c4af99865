package core

import (
	"context"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/geocode"
	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

// udfEval builds an evaluator with the standard UDF library over an
// instant geocoder and evaluates one expression against a tweet row.
func udfEval(t *testing.T, exprSQL, text, loc string) value.Value {
	t.Helper()
	cat := catalog.New()
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
	if err := RegisterStandardUDFs(cat, Deps{Geocoder: geocode.NewCachedClient(svc, 100, 0)}); err != nil {
		t.Fatal(err)
	}
	ev := exec.NewEvaluator(cat)
	stmt, err := lang.Parse("SELECT " + exprSQL + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	row := catalog.TweetTuple(tweetWith(text, loc))
	v, err := ev.Bind(stmt.Items[0].Expr, row.Schema)(context.Background(), row)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

func tweetWith(text, loc string) *tweet.Tweet {
	return &tweet.Tweet{ID: 1, Text: text, Location: loc, CreatedAt: time.Unix(0, 0)}
}

func TestSentimentUDFs(t *testing.T) {
	if v := udfEval(t, "sentiment(text)", "I love this great day", ""); v.IsNull() {
		t.Error("sentiment NULL for polar text")
	} else if f, _ := v.FloatVal(); f <= 0 {
		t.Errorf("sentiment = %v, want positive", f)
	}
	if v := udfEval(t, "sentiment_label(text)", "terrible awful day", ""); v.String() != "negative" {
		t.Errorf("label = %s", v)
	}
	if v := udfEval(t, "sentiment(text)", "", ""); !v.IsNull() {
		t.Errorf("sentiment of empty text = %s", v)
	}
}

func TestGeocodeUDFs(t *testing.T) {
	if v := udfEval(t, "latitude(loc)", "x", "tokyo"); v.IsNull() {
		t.Error("latitude(tokyo) NULL")
	} else if f, _ := v.FloatVal(); f < 35 || f > 36 {
		t.Errorf("latitude(tokyo) = %v", f)
	}
	if v := udfEval(t, "longitude(loc)", "x", "junk location"); !v.IsNull() {
		t.Errorf("longitude(junk) = %s", v)
	}
	if v := udfEval(t, "geocode_city(loc)", "x", "nyc"); v.String() != "New York" {
		t.Errorf("geocode_city = %s", v)
	}
	if v := udfEval(t, "geocode(loc)", "x", "paris"); v.Kind() != value.KindList {
		t.Errorf("geocode kind = %s", v.Kind())
	}
	if v := udfEval(t, "latitude(loc)", "x", "  "); !v.IsNull() {
		t.Errorf("latitude(blank) = %s", v)
	}
}

func TestEntityAndExtractionUDFs(t *testing.T) {
	v := udfEval(t, "named_entities(text)", "Tevez scores for Manchester City", "")
	lst, err := v.ListVal()
	if err != nil || len(lst) == 0 {
		t.Errorf("named_entities = %s (%v)", v, err)
	}
	v = udfEval(t, "urls(text)", "see http://a.example/x now", "")
	if v.String() != "[http://a.example/x]" {
		t.Errorf("urls = %s", v)
	}
	v = udfEval(t, "hashtags(text)", "#goal scored", "")
	if v.String() != "[goal]" {
		t.Errorf("hashtags = %s", v)
	}
	v = udfEval(t, "mentions(text)", "thanks @bbc", "")
	if v.String() != "[bbc]" {
		t.Errorf("mentions = %s", v)
	}
}

func TestRegexExtractUDF(t *testing.T) {
	// The paper's motivating case: pull the score out of match tweets.
	if v := udfEval(t, `regex_extract(text, '[0-9]+-[0-9]+')`, "GOAL! 3-0 to City", ""); v.String() != "3-0" {
		t.Errorf("score extract = %s", v)
	}
	// Capture groups.
	if v := udfEval(t, `regex_extract(text, 'magnitude ([0-9.]+)', 1)`, "Magnitude 6.1 quake near Tokyo", ""); v.String() != "6.1" {
		t.Errorf("group extract = %s", v)
	}
	// No match → NULL.
	if v := udfEval(t, `regex_extract(text, 'zzz+')`, "nothing here", ""); !v.IsNull() {
		t.Errorf("no-match = %s", v)
	}
	// Out-of-range group → NULL.
	if v := udfEval(t, `regex_extract(text, '(a)', 2)`, "a", ""); !v.IsNull() {
		t.Errorf("bad group = %s", v)
	}
	// All matches.
	if v := udfEval(t, `regex_extract_all(text, '#[a-z]+')`, "#goal and #win", ""); v.String() != "[#goal, #win]" {
		t.Errorf("extract_all = %s", v)
	}
}

func TestRegexExtractErrors(t *testing.T) {
	cat := catalog.New()
	if err := RegisterStandardUDFs(cat, Deps{}); err != nil {
		t.Fatal(err)
	}
	ev := exec.NewEvaluator(cat)
	row := catalog.TweetTuple(tweetWith("x", ""))
	bad := []string{
		`regex_extract(text)`,
		`regex_extract(text, '[', 0)`,
		`regex_extract(text, 'a', -1)`,
	}
	for _, q := range bad {
		stmt, err := lang.Parse("SELECT " + q + " FROM t")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := ev.Bind(stmt.Items[0].Expr, row.Schema)(context.Background(), row); err == nil {
			t.Errorf("%s should error", q)
		}
	}
}

func TestDuplicateStandardRegistration(t *testing.T) {
	cat := catalog.New()
	if err := RegisterStandardUDFs(cat, Deps{}); err != nil {
		t.Fatal(err)
	}
	if err := RegisterStandardUDFs(cat, Deps{}); err == nil {
		t.Error("double registration should error")
	}
}
