// Package plan is the TweeQL planner: it turns a parsed statement into
// an explicit, inspectable query plan — source reference, streaming-API
// pushdown candidates, residual WHERE conjuncts, event-time range,
// projection/aggregate/join shape, referenced columns — plus a
// canonical *scan signature* identifying the physical scan the query
// needs. Two queries with equal scan signatures can be served by one
// shared source subscription (the engine's shared-scan execution);
// extracting planning from the engine is what lets the serving layer,
// tests, and EXPLAIN reason about plans without running them.
package plan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/lang"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// Options tune analysis decisions that depend on engine configuration.
type Options struct {
	// AsyncUDFs reports whether the engine's asynchronous projection
	// path is available; it gates Query.Async for select lists calling
	// high-latency UDFs.
	AsyncUDFs bool
}

// Candidate pairs a streaming-API filter with the WHERE conjunct it was
// extracted from.
type Candidate struct {
	Filter twitterapi.Filter
	// ConjunctIdx indexes Query.Conjuncts: the conjunct the filter
	// serves exactly, removed from the residual when the source pushes
	// this candidate down.
	ConjunctIdx int
}

// Join is the planned shape of FROM a JOIN b ON a.x = b.y WINDOW w:
// the right-hand source and the join's configuration.
type Join struct {
	Right string
	exec.JoinConfig
}

// Query is the analyzed form of a statement — the plan IR the engine
// executes and EXPLAIN renders.
type Query struct {
	// Stmt is the statement the plan was built from.
	Stmt *lang.SelectStmt
	// Source is the FROM source name.
	Source string

	// Conjuncts are the WHERE conjuncts, pre-pushdown, in query order:
	// all of them, except the ones a join moved to its sides.
	Conjuncts []lang.Expr
	// Candidates are the API-eligible pushdown filters.
	Candidates []Candidate

	// IsAggregate selects the aggregate pipeline; Agg is its
	// configuration. Proj/Async describe the projection pipeline
	// otherwise.
	IsAggregate bool
	Agg         exec.AggregateConfig
	Proj        []exec.ProjItem
	Async       bool

	// Join is non-nil for two-source windowed joins.
	Join *Join

	// Columns is the set of source columns the plan's expressions
	// reference, for source-side pruning in the batched path. nil means
	// "all" (SELECT * or otherwise unprunable).
	Columns []string

	// TimeFrom/TimeTo bound the event timestamps the WHERE clause can
	// accept (zero = open), extracted from created_at comparisons with
	// literal times. Table sources prune segments by them; the
	// conjuncts stay in the residual filter, so the bounds only have to
	// be conservative, never exact.
	TimeFrom, TimeTo time.Time

	// Signature is the canonical identity of the physical scan this
	// query needs: source name + merged pushdown candidate set + pushed
	// time range. Queries with equal signatures ask the source for the
	// same physical stream and may share one scan. A join's is its left
	// side's bare scan (ScanOf), since its sides push nothing down.
	Signature string
}

// CandidateKey returns the stable conjunct key (lang.Key) of the i-th
// pushdown candidate — the identity shared scans use to agree on which
// conjunct the physical connection already enforces.
func (q *Query) CandidateKey(i int) string {
	return lang.Key(q.Conjuncts[q.Candidates[i].ConjunctIdx])
}

// Residual returns the conjuncts still to be evaluated after the scan
// pushed down the candidate whose conjunct key is pushedKey; "" means
// nothing was pushed and the full conjunct list comes back. The pushed
// conjunct is matched by key, not index, so a query attaching to a scan
// another query opened resolves the same residual even if its candidate
// order differs.
func (q *Query) Residual(pushedKey string) []lang.Expr {
	if pushedKey == "" {
		return q.Conjuncts
	}
	for i := range q.Candidates {
		if q.CandidateKey(i) != pushedKey {
			continue
		}
		idx := q.Candidates[i].ConjunctIdx
		conj := make([]lang.Expr, 0, len(q.Conjuncts)-1)
		for j := range q.Conjuncts {
			if j != idx {
				conj = append(conj, q.Conjuncts[j])
			}
		}
		return conj
	}
	return q.Conjuncts
}

// ScanOf is the plan of a bare scan of source: no pushdown, no time
// range, every column. Each side of a join reads one; its signature is
// src=<source>, the one a plain full-stream query over source has.
func ScanOf(source string) *Query {
	q := &Query{Source: source}
	q.Signature = q.computeSignature()
	return q
}

// computeSignature builds the canonical scan signature. Candidate
// conjunct keys are sorted and deduplicated so `WHERE a AND b` and
// `WHERE b AND a` merge onto one scan; the pushed time range rides
// along because a source honoring OpenRequest.From/To delivers a
// physically different stream for different bounds.
func (q *Query) computeSignature() string {
	var b strings.Builder
	b.WriteString("src=")
	b.WriteString(strings.ToLower(q.Source))
	if len(q.Candidates) > 0 {
		keys := make([]string, 0, len(q.Candidates))
		for i := range q.Candidates {
			keys = append(keys, q.CandidateKey(i))
		}
		sort.Strings(keys)
		b.WriteString("|push=")
		prev := ""
		for i, k := range keys {
			if i > 0 && k == prev {
				continue
			}
			if prev != "" {
				b.WriteString(" & ")
			}
			b.WriteString(k)
			prev = k
		}
	}
	if !q.TimeFrom.IsZero() {
		b.WriteString("|from=")
		b.WriteString(q.TimeFrom.UTC().Format(time.RFC3339Nano))
	}
	if !q.TimeTo.IsZero() {
		b.WriteString("|to=")
		b.WriteString(q.TimeTo.UTC().Format(time.RFC3339Nano))
	}
	return b.String()
}

// Analyze validates the statement against the catalog's UDF registry
// and computes the full plan.
func Analyze(stmt *lang.SelectStmt, cat *catalog.Catalog, opts Options) (*Query, error) {
	q := &Query{Stmt: stmt, Source: stmt.From.Name}

	if stmt.Where != nil {
		q.Conjuncts = SplitConjuncts(stmt.Where)
	}
	// Each side of a join reads a bare scan of its source (ScanOf), so a
	// join plan pushes nothing: no candidates, no time range.
	if stmt.Join == nil {
		for i, c := range q.Conjuncts {
			if f, ok := ConjunctToFilter(c); ok {
				q.Candidates = append(q.Candidates, Candidate{Filter: f, ConjunctIdx: i})
			}
		}
		q.TimeFrom, q.TimeTo = ExtractTimeRange(q.Conjuncts)
	}

	// Aggregate detection.
	hasAgg := false
	for _, it := range stmt.Items {
		if it.Wildcard {
			continue
		}
		if call, ok := it.Expr.(*lang.Call); ok && isAggCall(call) {
			hasAgg = true
		}
		// Nested aggregates are not supported.
		var nested error
		lang.Walk(it.Expr, func(n lang.Expr) bool {
			if n == it.Expr {
				return true
			}
			if call, ok := n.(*lang.Call); ok && isAggCall(call) {
				nested = fmt.Errorf("tweeql: aggregate %s must be at the top of a select item", call.Name)
				return false
			}
			return true
		})
		if nested != nil {
			return nil, nested
		}
	}
	q.IsAggregate = hasAgg || len(stmt.GroupBy) > 0

	if stmt.Where != nil {
		var aggInWhere error
		lang.Walk(stmt.Where, func(n lang.Expr) bool {
			if call, ok := n.(*lang.Call); ok && isAggCall(call) {
				aggInWhere = fmt.Errorf("tweeql: aggregate %s not allowed in WHERE", call.Name)
				return false
			}
			return true
		})
		if aggInWhere != nil {
			return nil, aggInWhere
		}
	}

	if stmt.Window != nil && stmt.Window.Count > 0 && stmt.Confidence != nil {
		// Confidence emission replaces fixed windows; combining it with a
		// count window re-creates the problem it solves.
		return nil, fmt.Errorf("tweeql: WITH CONFIDENCE requires a time window, not WINDOW n TWEETS")
	}
	if q.IsAggregate {
		if err := analyzeAggregate(stmt, q); err != nil {
			return nil, err
		}
	} else {
		if stmt.Window != nil && stmt.Join == nil {
			return nil, fmt.Errorf("tweeql: WINDOW requires aggregation or JOIN")
		}
		if stmt.Confidence != nil {
			return nil, fmt.Errorf("tweeql: WITH CONFIDENCE requires aggregation")
		}
		for _, it := range stmt.Items {
			if it.Wildcard {
				q.Proj = append(q.Proj, exec.ProjItem{Wildcard: true})
				continue
			}
			q.Proj = append(q.Proj, exec.ProjItem{Name: it.Name(), Expr: it.Expr})
		}
		exprs := make([]lang.Expr, 0, len(q.Proj))
		for _, p := range q.Proj {
			if p.Expr != nil {
				exprs = append(exprs, p.Expr)
			}
		}
		// A stateful UDF must see the rows in stream order, which the
		// pool's overlapping calls would not give it: such a select list
		// stays on the fused stage, which runs it row-major and calls its
		// high-latency UDFs inline.
		q.Async = opts.AsyncUDFs && exec.HasHighLatency(cat, exprs...) && !exec.HasStateful(cat, exprs...)
	}

	if stmt.Join != nil {
		if stmt.Window == nil || stmt.Window.Count > 0 {
			return nil, fmt.Errorf("tweeql: JOIN requires a time WINDOW clause")
		}
		if q.IsAggregate {
			return nil, fmt.Errorf("tweeql: JOIN with aggregation is not supported")
		}
		j, err := analyzeJoin(stmt)
		if err != nil {
			return nil, err
		}
		q.Join = j
		q.Conjuncts = j.splitSides(q.Conjuncts, cat)
	}
	q.Columns = referencedColumns(q)
	q.Signature = q.computeSignature()
	return q, nil
}

// analyzeJoin validates ON as a two-sided equality and resolves the
// (left, right) key expressions by matching qualifiers to bindings.
func analyzeJoin(stmt *lang.SelectStmt) (*Join, error) {
	eq, ok := stmt.Join.On.(*lang.Binary)
	if !ok || eq.Op != "=" {
		return nil, fmt.Errorf("tweeql: JOIN ON must be an equality")
	}
	lIdent, ok1 := eq.L.(*lang.Ident)
	rIdent, ok2 := eq.R.(*lang.Ident)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("tweeql: JOIN ON must compare two columns")
	}
	lb, rb := stmt.From.Binding(), stmt.Join.Right.Binding()
	j := &Join{Right: stmt.Join.Right.Name, JoinConfig: exec.JoinConfig{LeftBinding: lb, RightBinding: rb, Window: stmt.Window.Size}}
	switch {
	case matchesBinding(lIdent, lb) && matchesBinding(rIdent, rb):
		j.LeftKey, j.RightKey = lIdent, rIdent
	case matchesBinding(lIdent, rb) && matchesBinding(rIdent, lb):
		j.LeftKey, j.RightKey = rIdent, lIdent
	default:
		return nil, fmt.Errorf("tweeql: JOIN ON columns must be qualified with %q and %q", lb, rb)
	}
	return j, nil
}

// splitSides moves each stateless conjunct whose columns all carry one
// binding to that side and returns the rest, which filter the joined
// rows.
func (j *Join) splitSides(conjuncts []lang.Expr, cat *catalog.Catalog) (rest []lang.Expr) {
	for _, c := range conjuncts {
		qualifiers := map[string]bool{}
		lang.Walk(c, func(n lang.Expr) bool {
			if id, ok := n.(*lang.Ident); ok {
				qualifiers[strings.ToLower(id.Qualifier)] = true
			}
			return true
		})
		switch {
		case len(qualifiers) != 1 || exec.HasStateful(cat, c):
			rest = append(rest, c)
		case qualifiers[strings.ToLower(j.LeftBinding)]:
			j.LeftWhere = append(j.LeftWhere, c)
		case qualifiers[strings.ToLower(j.RightBinding)]:
			j.RightWhere = append(j.RightWhere, c)
		default:
			rest = append(rest, c)
		}
	}
	return rest
}

func matchesBinding(id *lang.Ident, binding string) bool {
	return id.Qualifier != "" && strings.EqualFold(id.Qualifier, binding)
}

// analyzeAggregate fills q.Agg: group expressions (with alias
// substitution), aggregate items, and the output column mapping.
func analyzeAggregate(stmt *lang.SelectStmt, q *Query) error {
	aliases := make(map[string]lang.Expr)
	for _, it := range stmt.Items {
		if it.Alias != "" && !it.Wildcard {
			aliases[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	// Group-by expressions, aliases substituted.
	var groupExprs []lang.Expr
	for _, g := range stmt.GroupBy {
		if id, ok := g.(*lang.Ident); ok && id.Qualifier == "" {
			if sub, ok := aliases[strings.ToLower(id.Name)]; ok {
				groupExprs = append(groupExprs, sub)
				continue
			}
		}
		groupExprs = append(groupExprs, g)
	}
	groupIdx := make(map[string]int, len(groupExprs))
	for i, g := range groupExprs {
		groupIdx[lang.Key(g)] = i
	}

	cfg := exec.AggregateConfig{GroupExprs: groupExprs, Window: stmt.Window, Confidence: stmt.Confidence}
	for _, it := range stmt.Items {
		if it.Wildcard {
			return fmt.Errorf("tweeql: * is not allowed with GROUP BY or aggregates")
		}
		if call, ok := it.Expr.(*lang.Call); ok && isAggCall(call) {
			if !call.Star && len(call.Args) != 1 {
				return fmt.Errorf("tweeql: %s takes exactly one argument", call.Name)
			}
			var arg lang.Expr
			if !call.Star {
				arg = call.Args[0]
				// Aggregate args may reference select aliases too.
				if id, ok := arg.(*lang.Ident); ok && id.Qualifier == "" {
					if sub, ok := aliases[strings.ToLower(id.Name)]; ok {
						arg = sub
					}
				}
			}
			cfg.Out = append(cfg.Out, exec.OutCol{Name: it.Name(), IsAgg: true, Index: len(cfg.Aggs)})
			cfg.Aggs = append(cfg.Aggs, exec.AggItem{
				Name:    it.Name(),
				AggName: exec.NormalizeAggName(call.Name),
				Star:    call.Star,
				Arg:     arg,
			})
			continue
		}
		// Non-aggregate item must be a group expression (directly or via
		// its own alias).
		expr := it.Expr
		if idx, ok := groupIdx[lang.Key(expr)]; ok {
			cfg.Out = append(cfg.Out, exec.OutCol{Name: it.Name(), Index: idx})
			continue
		}
		return fmt.Errorf("tweeql: select item %q must be an aggregate or appear in GROUP BY", it.Expr)
	}
	q.Agg = cfg
	return nil
}

func isAggCall(c *lang.Call) bool {
	switch strings.ToUpper(c.Name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "VAR", "STDDEV":
		return true
	}
	return false
}

// SplitConjuncts flattens the AND tree into a conjunct list.
func SplitConjuncts(e lang.Expr) []lang.Expr {
	if b, ok := e.(*lang.Binary); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []lang.Expr{e}
}

// ExtractTimeRange derives [from, to] bounds from conjuncts of the
// shape `created_at <op> <literal>`. It relies on the engine-wide
// invariant that a row's created_at column equals its event timestamp
// (TweetTuple and every stage that forwards rows preserve it), which
// is what lets a column predicate prune time partitions keyed on the
// event timestamp.
func ExtractTimeRange(conjuncts []lang.Expr) (from, to time.Time) {
	for _, c := range conjuncts {
		b, ok := c.(*lang.Binary)
		if !ok {
			continue
		}
		op := b.Op
		ts, ok := timeBound(b.L, b.R)
		if !ok {
			if ts, ok = timeBound(b.R, b.L); !ok {
				continue
			}
			op = flipCmp(op)
		}
		switch op {
		case ">", ">=":
			if from.IsZero() || ts.After(from) {
				from = ts
			}
		case "<", "<=":
			if to.IsZero() || ts.Before(to) {
				to = ts
			}
		case "=":
			from, to = ts, ts
		}
	}
	return from, to
}

// timeBound matches (created_at ident, time literal) and returns the
// literal's timestamp.
func timeBound(l, r lang.Expr) (time.Time, bool) {
	id, ok := l.(*lang.Ident)
	if !ok || id.Qualifier != "" || !strings.EqualFold(id.Name, "created_at") {
		return time.Time{}, false
	}
	lit, ok := r.(*lang.Literal)
	if !ok {
		return time.Time{}, false
	}
	switch lit.Val.Kind() {
	case value.KindTime:
		t, _ := lit.Val.TimeVal()
		return t, true
	case value.KindString:
		return exec.ParseTimeLiteral(lit.Val.Str())
	}
	return time.Time{}, false
}

func flipCmp(op string) string {
	switch op {
	case ">":
		return "<"
	case ">=":
		return "<="
	case "<":
		return ">"
	case "<=":
		return ">="
	}
	return op
}

// referencedColumns collects every column name the plan can read, or
// nil when pruning is unsafe (a wildcard projection forwards whole
// rows). Geo idents (location IN [box]) read the GPS lat/lon columns
// implicitly, so those ride along. Join plans never prune — the join
// forwards whole rows from both sides.
func referencedColumns(q *Query) []string {
	if q.Join != nil {
		return nil
	}
	var exprs []lang.Expr
	exprs = append(exprs, q.Conjuncts...)
	if q.IsAggregate {
		exprs = append(exprs, q.Agg.GroupExprs...)
		for _, a := range q.Agg.Aggs {
			if a.Arg != nil {
				exprs = append(exprs, a.Arg)
			}
		}
	} else {
		for _, p := range q.Proj {
			if p.Wildcard {
				return nil
			}
			exprs = append(exprs, p.Expr)
		}
	}
	seen := make(map[string]bool)
	cols := []string{}
	add := func(name string) {
		name = strings.ToLower(name)
		if !seen[name] {
			seen[name] = true
			cols = append(cols, name)
		}
	}
	for _, x := range exprs {
		lang.Walk(x, func(n lang.Expr) bool {
			switch x := n.(type) {
			case *lang.Ident:
				add(x.Name)
			case *lang.InBox:
				// A geo name in a bounding-box test reads the GPS
				// columns; anywhere else it is just its own column.
				if id, ok := x.Loc.(*lang.Ident); ok && isGeoName(id.Name) {
					add("lat")
					add("lon")
				}
			}
			return true
		})
	}
	return cols
}

// ConjunctToFilter maps one WHERE conjunct to a streaming-API filter if
// the API can serve it: keyword CONTAINS (or an OR of them), a geo
// bounding box, or user-id equality/membership.
func ConjunctToFilter(c lang.Expr) (twitterapi.Filter, bool) {
	switch x := c.(type) {
	case *lang.Binary:
		switch x.Op {
		case "CONTAINS":
			if kw, ok := containsKeyword(x); ok {
				return twitterapi.Filter{Track: []string{kw}}, true
			}
		case "OR":
			if kws, ok := orOfContains(x); ok {
				return twitterapi.Filter{Track: kws}, true
			}
		case "=":
			if id, ok := userIDIdent(x.L); ok {
				if lit, ok := x.R.(*lang.Literal); ok {
					if n, err := lit.Val.IntVal(); err == nil && id {
						return twitterapi.Filter{Follow: []int64{n}}, true
					}
				}
			}
		}
	case *lang.InBox:
		if id, ok := x.Loc.(*lang.Ident); ok && isGeoName(id.Name) {
			box, err := exec.ResolveBox(x.Box)
			if err == nil {
				return twitterapi.Filter{Locations: []twitterapi.Box{box}}, true
			}
		}
	case *lang.InList:
		if id, ok := userIDIdent(x.X); ok && id {
			var ids []int64
			for _, item := range x.Items {
				lit, ok := item.(*lang.Literal)
				if !ok {
					return twitterapi.Filter{}, false
				}
				n, err := lit.Val.IntVal()
				if err != nil {
					return twitterapi.Filter{}, false
				}
				ids = append(ids, n)
			}
			if len(ids) > 0 {
				return twitterapi.Filter{Follow: ids}, true
			}
		}
	}
	return twitterapi.Filter{}, false
}

func containsKeyword(b *lang.Binary) (string, bool) {
	id, ok := b.L.(*lang.Ident)
	if !ok || !strings.EqualFold(id.Name, "text") {
		return "", false
	}
	lit, ok := b.R.(*lang.Literal)
	if !ok {
		return "", false
	}
	s, err := lit.Val.StringVal()
	if err != nil || s == "" {
		return "", false
	}
	return s, true
}

// orOfContains matches OR trees whose every leaf is text CONTAINS 'kw',
// which the track filter's any-keyword semantics serves exactly.
func orOfContains(e lang.Expr) ([]string, bool) {
	b, ok := e.(*lang.Binary)
	if !ok {
		return nil, false
	}
	switch b.Op {
	case "OR":
		l, ok1 := orOfContains(b.L)
		r, ok2 := orOfContains(b.R)
		if ok1 && ok2 {
			return append(l, r...), true
		}
		return nil, false
	case "CONTAINS":
		kw, ok := containsKeyword(b)
		if !ok {
			return nil, false
		}
		return []string{kw}, true
	default:
		return nil, false
	}
}

func userIDIdent(e lang.Expr) (bool, bool) {
	id, ok := e.(*lang.Ident)
	if !ok {
		return false, false
	}
	name := strings.ToLower(id.Name)
	return name == "user_id" || name == "userid", true
}

func isGeoName(name string) bool {
	switch strings.ToLower(name) {
	case "location", "loc", "geo", "coordinates":
		return true
	}
	return false
}
