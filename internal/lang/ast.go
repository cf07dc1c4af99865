package lang

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tweeql/internal/value"
)

// Expr is a TweeQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Ident references a column, optionally qualified ("t.text").
type Ident struct {
	Qualifier string
	Name      string
}

func (*Ident) exprNode() {}

func (e *Ident) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (*Literal) exprNode() {}

// String renders the literal as the parser reads it back: a float in
// plain decimal with a point (the lexer takes no exponent, and 2.0 must
// not come back as the int 2).
func (e *Literal) String() string {
	switch e.Val.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(e.Val.String(), "'", "''") + "'"
	case value.KindFloat:
		if f, _ := e.Val.FloatVal(); !math.IsInf(f, 0) && !math.IsNaN(f) {
			s := strconv.FormatFloat(f, 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			return s
		}
	}
	return e.Val.String()
}

// Call is a function or aggregate invocation. Star marks COUNT(*).
type Call struct {
	Name string
	Args []Expr
	Star bool
}

func (*Call) exprNode() {}

func (e *Call) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Binary is an infix operation. Op is one of: = != < <= > >= + - * / %
// AND OR CONTAINS MATCHES.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// Unary is NOT x or -x.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) exprNode() {}

func (e *Unary) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(" + e.Op + e.X.String() + ")"
}

// IsNull is "x IS NULL" (Negate=false) or "x IS NOT NULL" (Negate=true).
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) exprNode() {}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// BoxLit is a bounding-box literal: either named after a gazetteer city
// ([BOUNDING BOX FOR nyc]) or given as explicit corners
// ([BOX 40.47 -74.26 40.92 -73.70] / BOX(40.47, -74.26, 40.92, -73.70)).
type BoxLit struct {
	City   string
	Coords [4]float64 // minLat, minLon, maxLat, maxLon
}

func (*BoxLit) exprNode() {}

func (e *BoxLit) String() string {
	if e.City != "" {
		return "[BOUNDING BOX FOR " + e.City + "]"
	}
	return fmt.Sprintf("BOX(%g, %g, %g, %g)", e.Coords[0], e.Coords[1], e.Coords[2], e.Coords[3])
}

// InBox is the geo-containment predicate "location IN <box>".
type InBox struct {
	Loc Expr
	Box *BoxLit
}

func (*InBox) exprNode() {}

func (e *InBox) String() string {
	return "(" + e.Loc.String() + " IN " + e.Box.String() + ")"
}

// InList is the membership predicate "x IN (a, b, c)".
type InList struct {
	X     Expr
	Items []Expr
}

func (*InList) exprNode() {}

func (e *InList) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return "(" + e.X.String() + " IN (" + strings.Join(parts, ", ") + "))"
}

// SelectItem is one projected column with its optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	// Wildcard marks a bare * in the select list.
	Wildcard bool
}

// Name returns the output column name: the alias if present, otherwise a
// readable rendering of the expression.
func (si SelectItem) Name() string {
	if si.Alias != "" {
		return si.Alias
	}
	if id, ok := si.Expr.(*Ident); ok {
		return id.Name
	}
	return si.Expr.String()
}

// TableRef names a source stream or table, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name expressions should use to qualify columns.
func (tr TableRef) Binding() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Name
}

// JoinClause is a windowed stream-stream equi-join.
type JoinClause struct {
	Right TableRef
	On    Expr
}

// WindowSpec is "WINDOW <size> [EVERY <slide>]" for time windows, or
// "WINDOW <n> TWEETS" for count windows (the §2 design alternative the
// paper critiques: count windows keep bucket sizes even but let sparse
// groups accumulate stale data). Count > 0 means a count window and
// Size/Every are zero.
type WindowSpec struct {
	Size  time.Duration
	Every time.Duration
	// Count is the tumbling row-count window size (0 = time window).
	Count int64
}

// ConfidenceSpec is "WITH CONFIDENCE <level> [WITHIN <halfwidth>]": the
// CONTROL-style trigger that emits a group early once its aggregate's
// confidence interval at the given level is narrower than halfwidth.
type ConfidenceSpec struct {
	Level     float64
	HalfWidth float64
}

// IntoKind says where results go.
type IntoKind int

const (
	IntoStdout IntoKind = iota
	IntoStream
	IntoTable
)

// IntoSpec is the INTO clause.
type IntoSpec struct {
	Kind IntoKind
	Name string
}

// SelectStmt is a full TweeQL query.
type SelectStmt struct {
	Items      []SelectItem
	From       TableRef
	Join       *JoinClause
	Where      Expr
	GroupBy    []Expr
	Window     *WindowSpec
	Confidence *ConfidenceSpec
	Limit      int // -1 when absent
	Into       *IntoSpec
}

// String pretty-prints the statement in canonical TweeQL.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Wildcard {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM " + s.From.Name)
	if s.From.Alias != "" {
		b.WriteString(" AS " + s.From.Alias)
	}
	if s.Join != nil {
		b.WriteString(" JOIN " + s.Join.Right.Name)
		if s.Join.Right.Alias != "" {
			b.WriteString(" AS " + s.Join.Right.Alias)
		}
		b.WriteString(" ON " + s.Join.On.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Window != nil {
		if s.Window.Count > 0 {
			fmt.Fprintf(&b, " WINDOW %d TWEETS", s.Window.Count)
		} else {
			b.WriteString(" WINDOW " + formatDuration(s.Window.Size))
			if s.Window.Every != s.Window.Size {
				b.WriteString(" EVERY " + formatDuration(s.Window.Every))
			}
		}
	}
	if s.Confidence != nil {
		b.WriteString(fmt.Sprintf(" WITH CONFIDENCE %g", s.Confidence.Level))
		if s.Confidence.HalfWidth > 0 {
			b.WriteString(fmt.Sprintf(" WITHIN %g", s.Confidence.HalfWidth))
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	if s.Into != nil {
		switch s.Into.Kind {
		case IntoStdout:
			b.WriteString(" INTO STDOUT")
		case IntoStream:
			b.WriteString(" INTO STREAM " + s.Into.Name)
		case IntoTable:
			b.WriteString(" INTO TABLE " + s.Into.Name)
		}
	}
	return b.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d%(24*time.Hour) == 0 && d >= 24*time.Hour:
		return fmt.Sprintf("%d DAYS", d/(24*time.Hour))
	case d%time.Hour == 0 && d >= time.Hour:
		return fmt.Sprintf("%d HOURS", d/time.Hour)
	case d%time.Minute == 0 && d >= time.Minute:
		return fmt.Sprintf("%d MINUTES", d/time.Minute)
	default:
		return fmt.Sprintf("%d SECONDS", d/time.Second)
	}
}

// Key returns a stable, case-insensitive identity for an expression:
// two expressions with equal Key evaluate identically against any
// tuple. The planner uses it to match select items to GROUP BY
// expressions, and the executor relies on it to pair compiled closures
// with the eddy conjuncts they came from across plan rebuilds.
func Key(e Expr) string {
	if e == nil {
		return ""
	}
	return strings.ToLower(e.String())
}

// Walk applies fn to every expression node in the tree rooted at e,
// parents before children. Returning false stops descent into children.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch t := e.(type) {
	case *Binary:
		Walk(t.L, fn)
		Walk(t.R, fn)
	case *Unary:
		Walk(t.X, fn)
	case *IsNull:
		Walk(t.X, fn)
	case *Call:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	case *InBox:
		Walk(t.Loc, fn)
	case *InList:
		Walk(t.X, fn)
		for _, it := range t.Items {
			Walk(it, fn)
		}
	}
}
