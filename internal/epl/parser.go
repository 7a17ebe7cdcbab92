package epl

// behaviorKeywords are reserved: an identifier in this set after a rule's
// '=>' starts another behavior rather than a new rule.
var behaviorKeywords = map[string]bool{
	"balance": true, "reserve": true, "colocate": true, "separate": true, "pin": true,
	"provclass": true,
}

// Parse compiles EPL source into a Policy. Variables declared inline
// (Type(v)) are bound to their uses; declare-before-use order is enforced.
func Parse(src string) (*Policy, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pol := &Policy{Source: src}
	for p.peek().kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		r.Index = len(pol.Rules)
		pol.Rules = append(pol.Rules, r)
	}
	if len(pol.Rules) == 0 {
		return nil, errAt(Pos{1, 1}, "empty policy")
	}
	return pol, nil
}

// MustParse is Parse that panics on error, for tests and embedded rules.
func MustParse(src string) *Policy {
	pol, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return pol
}

type parser struct {
	toks []token
	i    int

	// refs collects ActorRefs of the rule being parsed, in source order,
	// for the binding pass.
	refs []*ActorRef
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peek2() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errAt(t.pos, "expected %s, found %s", k, t)
	}
	return t, nil
}

func (p *parser) expectIdent(want string) (token, error) {
	t := p.next()
	if t.kind != tokIdent || t.text != want {
		return t, errAt(t.pos, "expected %q, found %s", want, t)
	}
	return t, nil
}

func (p *parser) parseRule() (*Rule, error) {
	p.refs = nil
	start := p.peek().pos
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	rule := &Rule{Cond: cond, Pos: start}
	for {
		beh, err := p.parseBehavior()
		if err != nil {
			return nil, err
		}
		rule.Behaviors = append(rule.Behaviors, beh)
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind == tokIdent && behaviorKeywords[t.text] && p.peek2().kind == tokLParen {
			continue
		}
		break
	}
	if err := p.bind(rule); err != nil {
		return nil, err
	}
	rule.levels = plan(rule)
	return rule, nil
}

// bind resolves the rule's ActorRefs in source order: Type(v) declares v;
// a bare identifier is a variable use when v was declared earlier in the
// rule, otherwise an anonymous type pattern.
func (p *parser) bind(rule *Rule) error {
	decls := map[string]*VarDecl{}
	for _, ref := range p.refs {
		if ref.VarName != "" {
			if prev := decls[ref.VarName]; prev != nil {
				return errAt(ref.Pos, "variable %q already declared as %s(%s)", ref.VarName, prev.Type, prev.Name)
			}
			d := &VarDecl{Name: ref.VarName, Type: ref.TypeName, Pos: ref.Pos}
			decls[ref.VarName] = d
			rule.Vars = append(rule.Vars, d)
			ref.Decl = d
			continue
		}
		if d := decls[ref.TypeName]; d != nil {
			// Bare use of a declared variable.
			ref.VarName = ref.TypeName
			ref.TypeName = ""
			ref.Decl = d
		}
	}
	return nil
}

func (p *parser) parseCond() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Cond, error) {
	l, err := p.parseBasic()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "and" {
		p.next()
		r, err := p.parseBasic()
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBasic() (Cond, error) {
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		p.next()
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return c, nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return &TrueCond{Pos: t.pos}, nil
	case t.kind == tokIdent && t.text == "server":
		p.next()
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		res, pos, err := p.parseResource()
		if err != nil {
			return nil, err
		}
		return p.parseStatCmp(&ResFeature{Server: true, Res: res, Pos: pos})
	case t.kind == tokIdent && t.text == "client":
		p.next()
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		return p.parseCallTail(true, nil, t.pos)
	case t.kind == tokIdent:
		ref, err := p.parseActorRef()
		if err != nil {
			return nil, err
		}
		nt := p.peek()
		if nt.kind == tokIdent && nt.text == "in" {
			p.next()
			return p.parseInRef(ref)
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		sel := p.peek()
		if sel.kind == tokIdent && sel.text == "call" {
			p.next()
			return p.parseCallTail(false, ref, sel.pos)
		}
		res, pos, err := p.parseResource()
		if err != nil {
			return nil, err
		}
		return p.parseStatCmp(&ResFeature{Actor: ref, Res: res, Pos: pos})
	default:
		return nil, errAt(t.pos, "expected condition, found %s", t)
	}
}

// parseCallTail parses call(actor.fname) then .stat comp val. The leading
// "client." or "caller." has been consumed up to (for client) or including
// the "call" identifier (for actor callers the caller ref is given).
func (p *parser) parseCallTail(client bool, caller *ActorRef, pos Pos) (Cond, error) {
	if client {
		if _, err := p.expectIdent("call"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	callee, err := p.parseActorRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	fn, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	feat := &CallFeature{Client: client, Caller: caller, Callee: callee, FName: fn.text, Pos: pos}
	return p.parseStatCmp(feat)
}

// parseStatCmp parses ".stat comp val" after a feature.
func (p *parser) parseStatCmp(feat Feature) (Cond, error) {
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	st, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	var stat Stat
	switch st.text {
	case "count":
		stat = Count
	case "size":
		stat = Size
	case "perc":
		stat = Perc
	default:
		return nil, errAt(st.pos, "expected statistic (count, size, perc), found %q", st.text)
	}
	opTok := p.next()
	var op CmpOp
	switch opTok.kind {
	case tokLT:
		op = LT
	case tokGT:
		op = GT
	case tokLE:
		op = LE
	case tokGE:
		op = GE
	default:
		return nil, errAt(opTok.pos, "expected comparison operator, found %s", opTok)
	}
	val, err := p.expect(tokNumber)
	if err != nil {
		return nil, err
	}
	c := &CmpCond{Feat: feat, Stat: stat, Op: op, Val: val.num, Pos: st.pos}
	c.text = c.format()
	return c, nil
}

// parseInRef parses "ref(actor.pname)" after "sub in".
func (p *parser) parseInRef(sub *ActorRef) (Cond, error) {
	refTok, err := p.expectIdent("ref")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	container, err := p.parseActorRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	prop, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return &InRefCond{Sub: sub, Container: container, Prop: prop.text, Pos: refTok.pos}, nil
}

// parseActorRef parses aname | aname(var) | var | any | any(var); binding
// to declarations happens in a later pass.
func (p *parser) parseActorRef() (*ActorRef, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	ref := &ActorRef{TypeName: t.text, Pos: t.pos}
	if t.text == "any" {
		ref.TypeName = AnyType
	}
	if p.peek().kind == tokLParen && p.peek2().kind == tokIdent {
		// Could be Type(var) only if followed by ')'.
		if p.i+2 < len(p.toks) && p.toks[p.i+2].kind == tokRParen {
			p.next() // (
			v := p.next()
			p.next() // )
			ref.VarName = v.text
		}
	}
	p.refs = append(p.refs, ref)
	return ref, nil
}

func (p *parser) parseResource() (Resource, Pos, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return 0, t.pos, err
	}
	switch t.text {
	case "cpu":
		return CPU, t.pos, nil
	case "mem", "memory":
		return Mem, t.pos, nil
	case "net", "network":
		return Net, t.pos, nil
	}
	return 0, t.pos, errAt(t.pos, "expected resource (cpu, mem, net), found %q", t.text)
}

func (p *parser) parseBehavior() (Behavior, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	switch t.text {
	case "balance":
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		var types []string
		for {
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			types = append(types, id.text)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		res, _, err := p.parseResource()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &BalanceBeh{Types: types, Res: res, Pos: t.pos}, nil
	case "reserve":
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		a, err := p.parseActorRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		res, _, err := p.parseResource()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &ReserveBeh{Actor: a, Res: res, Pos: t.pos}, nil
	case "colocate", "separate":
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		a, err := p.parseActorRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		b, err := p.parseActorRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if t.text == "colocate" {
			return &ColocateBeh{A: a, B: b, Pos: t.pos}, nil
		}
		return &SeparateBeh{A: a, B: b, Pos: t.pos}, nil
	case "pin":
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		a, err := p.parseActorRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &PinBeh{Actor: a, Pos: t.pos}, nil
	case "provclass":
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		var classes []string
		for {
			id, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			classes = append(classes, id.text)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &ProvClassBeh{Classes: classes, Pos: t.pos}, nil
	}
	return nil, errAt(t.pos, "expected behavior (balance, reserve, colocate, separate, pin, provclass), found %q", t.text)
}
