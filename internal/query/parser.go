package query

import (
	"vtjoin/internal/chronon"
)

// Parse parses a query text into its AST.
func Parse(text string) (*Pipeline, error) {
	p := &parser{lx: newLexer(text)}
	if err := p.next(); err != nil {
		return nil, err
	}
	pipe, err := p.pipeline()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, errAt(p.tok.line, p.tok.col, "unexpected %s after query", p.tok.describe())
	}
	return pipe, nil
}

// Normalize parses text and returns its canonical form — the
// plan-cache key. Whitespace, comments, keyword case, redundant
// parentheses and default-valued hints all normalize away.
func Normalize(text string) (string, error) {
	pipe, err := Parse(text)
	if err != nil {
		return "", err
	}
	return pipe.Canonical(), nil
}

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) next() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// expect consumes the current token, which must be of kind k.
func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.tok
	if t.kind != k {
		return t, errAt(t.line, t.col, "expected %s, got %s", what, t.describe())
	}
	return t, p.next()
}

// ident consumes an identifier token.
func (p *parser) ident(what string) (token, error) { return p.expect(tIdent, what) }

// atKeyword reports whether the current token is the given keyword.
func (p *parser) atKeyword(kw string) bool { return p.tok.keyword() == kw }

// pipeline := source ('|' stage)*
func (p *parser) pipeline() (*Pipeline, error) {
	src, err := p.source()
	if err != nil {
		return nil, err
	}
	pipe := &Pipeline{Source: src}
	for p.tok.kind == tPipe {
		if err := p.next(); err != nil {
			return nil, err
		}
		st, err := p.stage()
		if err != nil {
			return nil, err
		}
		pipe.Stages = append(pipe.Stages, st)
	}
	return pipe, nil
}

// source := 'scan' ident | '(' pipeline ')'
func (p *parser) source() (Source, error) {
	switch {
	case p.atKeyword("scan"):
		if err := p.next(); err != nil {
			return nil, err
		}
		t, err := p.ident("a relation name after 'scan'")
		if err != nil {
			return nil, err
		}
		return &ScanSource{Relation: t.text, Line: t.line, Col: t.col}, nil
	case p.tok.kind == tLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		pipe, err := p.pipeline()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')' closing the sub-query"); err != nil {
			return nil, err
		}
		return &SubSource{Pipe: pipe}, nil
	}
	return nil, errAt(p.tok.line, p.tok.col, "expected 'scan <relation>' or a parenthesized sub-query, got %s", p.tok.describe())
}

func (p *parser) stage() (Stage, error) {
	t := p.tok
	switch t.keyword() {
	case "select":
		if err := p.next(); err != nil {
			return nil, err
		}
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		return &SelectStage{Pred: pred}, nil
	case "project":
		if err := p.next(); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.ident("a column name")
			if err != nil {
				return nil, err
			}
			cols = append(cols, c.text)
			if p.tok.kind != tComma {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return &ProjectStage{Columns: cols, Line: t.line, Col: t.col}, nil
	case "join":
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.source()
		if err != nil {
			return nil, err
		}
		hints, err := p.hints()
		if err != nil {
			return nil, err
		}
		return &JoinStage{Right: right, Hints: hints, Line: t.line, Col: t.col}, nil
	case "diff":
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.source()
		if err != nil {
			return nil, err
		}
		return &DiffStage{Right: right, Line: t.line, Col: t.col}, nil
	case "aggregate":
		if err := p.next(); err != nil {
			return nil, err
		}
		op := p.tok.keyword()
		switch op {
		case "count":
			if err := p.next(); err != nil {
				return nil, err
			}
			return &AggregateStage{Op: "count", Line: t.line, Col: t.col}, nil
		case "sum":
			if err := p.next(); err != nil {
				return nil, err
			}
			c, err := p.ident("a column name after 'sum'")
			if err != nil {
				return nil, err
			}
			return &AggregateStage{Op: "sum", Column: c.text, Line: t.line, Col: t.col}, nil
		}
		return nil, errAt(p.tok.line, p.tok.col, "expected 'count' or 'sum <column>' after 'aggregate', got %s", p.tok.describe())
	}
	return nil, errAt(t.line, t.col, "expected a stage (select, project, join, diff or aggregate), got %s", t.describe())
}

// hints := ('using' algo | 'on' pred | 'shards' n | 'memory' n)*
func (p *parser) hints() (Hints, error) {
	var h Hints
	seen := map[string]bool{}
	for {
		kw := p.tok.keyword()
		switch kw {
		case "using", "on", "shards", "memory":
		default:
			return h, nil
		}
		at := p.tok
		if seen[kw] {
			return h, errAt(at.line, at.col, "duplicate %q hint", kw)
		}
		seen[kw] = true
		if err := p.next(); err != nil {
			return h, err
		}
		switch kw {
		case "using":
			t, err := p.ident("an algorithm after 'using'")
			if err != nil {
				return h, err
			}
			switch v := t.keyword(); v {
			case "partition", "sortmerge", "nestedloop":
				h.Algorithm = v
			default:
				return h, errAt(t.line, t.col, "unknown algorithm %q (want partition, sortmerge or nestedloop)", t.text)
			}
		case "on":
			t, err := p.ident("a time predicate after 'on'")
			if err != nil {
				return h, err
			}
			switch v := t.keyword(); v {
			case "intersects", "contains", "containedin", "equal":
				h.Predicate = v
			default:
				return h, errAt(t.line, t.col, "unknown time predicate %q (want intersects, contains, containedin or equal)", t.text)
			}
		case "shards":
			t, err := p.expect(tInt, "a shard count after 'shards'")
			if err != nil {
				return h, err
			}
			if t.i < 1 || t.i > 1<<20 {
				return h, errAt(t.line, t.col, "shard count %d out of range", t.i)
			}
			h.Shards = int(t.i)
		case "memory":
			t, err := p.expect(tInt, "a page count after 'memory'")
			if err != nil {
				return h, err
			}
			if t.i < 4 || t.i > 1<<30 {
				return h, errAt(t.line, t.col, "memory %d pages out of range (want >= 4)", t.i)
			}
			h.Memory = int(t.i)
		}
	}
}

// predicate := and ('or' and)*
func (p *parser) predicate() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &LogicExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

// and := unary ('and' unary)*
func (p *parser) andExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &LogicExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

// unary := 'not' unary | '(' predicate ')' | 'vt' timecmp | column cmp literal
func (p *parser) unaryExpr() (Expr, error) {
	t := p.tok
	switch {
	case p.atKeyword("not"):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	case t.kind == tLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')' closing the predicate"); err != nil {
			return nil, err
		}
		return e, nil
	case p.atKeyword("vt"):
		return p.timeExpr()
	case t.kind == tIdent:
		return p.compareExpr()
	}
	return nil, errAt(t.line, t.col, "expected a predicate, got %s", t.describe())
}

func (p *parser) timeExpr() (Expr, error) {
	vt := p.tok
	if err := p.next(); err != nil {
		return nil, err
	}
	op := p.tok.keyword()
	switch op {
	case "overlaps", "contains", "during", "equals":
	default:
		return nil, errAt(p.tok.line, p.tok.col, "expected overlaps, contains, during or equals after 'vt', got %s", p.tok.describe())
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrack, "'[' opening an interval"); err != nil {
		return nil, err
	}
	lo, err := p.chrononLit()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma, "',' between interval endpoints"); err != nil {
		return nil, err
	}
	hi, err := p.chrononLit()
	if err != nil {
		return nil, err
	}
	closing := p.tok
	if _, err := p.expect(tRBrack, "']' closing the interval"); err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, errAt(closing.line, closing.col, "empty interval [%d, %d]", lo, hi)
	}
	return &TimeExpr{Op: op, Ivl: chronon.New(lo, hi), Line: vt.line, Col: vt.col}, nil
}

func (p *parser) chrononLit() (chronon.Chronon, error) {
	t := p.tok
	switch {
	case t.kind == tInt:
		if err := p.next(); err != nil {
			return 0, err
		}
		return chronon.Chronon(t.i), nil
	case t.keyword() == "beginning":
		if err := p.next(); err != nil {
			return 0, err
		}
		return chronon.Beginning, nil
	case t.keyword() == "forever":
		if err := p.next(); err != nil {
			return 0, err
		}
		return chronon.Forever, nil
	case t.keyword() == "now":
		if err := p.next(); err != nil {
			return 0, err
		}
		return chronon.Now, nil
	}
	return 0, errAt(t.line, t.col, "expected a chronon (integer, beginning, forever or now), got %s", t.describe())
}

func (p *parser) compareExpr() (Expr, error) {
	col := p.tok
	if err := p.next(); err != nil {
		return nil, err
	}
	var op string
	switch p.tok.kind {
	case tEq:
		op = "="
	case tNe:
		op = "!="
	case tLt:
		op = "<"
	case tLe:
		op = "<="
	case tGt:
		op = ">"
	case tGe:
		op = ">="
	default:
		return nil, errAt(p.tok.line, p.tok.col, "expected a comparison operator after column %q, got %s", col.text, p.tok.describe())
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &CompareExpr{Column: col.text, Op: op, Lit: lit, Line: col.line, Col: col.col}, nil
}

func (p *parser) literal() (Literal, error) {
	t := p.tok
	switch {
	case t.kind == tInt:
		return Literal{Kind: LitInt, Int: t.i}, p.next()
	case t.kind == tFloat:
		return Literal{Kind: LitFloat, Float: t.f}, p.next()
	case t.kind == tString:
		return Literal{Kind: LitString, Str: t.text}, p.next()
	case t.keyword() == "true":
		return Literal{Kind: LitBool, Bool: true}, p.next()
	case t.keyword() == "false":
		return Literal{Kind: LitBool, Bool: false}, p.next()
	case t.keyword() == "null":
		return Literal{Kind: LitNull}, p.next()
	}
	return Literal{}, errAt(t.line, t.col, "expected a literal (integer, float, string, true, false or null), got %s", t.describe())
}
