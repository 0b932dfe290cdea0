package query

import (
	"drugtree/internal/store"
)

// buildAgg lowers an AggNode to a serial hash-aggregation operator.
func buildAgg(n *AggNode, ec *execCtx, depth int) (iterator, error) {
	if it, ok := tryOverlayRead(n, ec, depth); ok {
		return it, nil
	}
	env := ec.env(n.Input.Schema())
	groups := make([]*boundExpr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		be, err := bind(g, env)
		if err != nil {
			return nil, err
		}
		groups[i] = be
	}
	args := make([]*boundExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		be, err := bind(a.Arg, env)
		if err != nil {
			return nil, err
		}
		args[i] = be
	}
	op := ec.note(depth, "%s", n.describe())
	in, err := buildIterator(n.Input, ec, depth+1)
	if err != nil {
		return nil, err
	}
	return &aggIter{in: in, groups: groups, aggs: n.Aggs, args: args, ec: ec, op: op}, nil
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   store.Value
	max   store.Value
	seen  bool
}

func (s *aggState) add(fn AggFunc, v store.Value) {
	if v.IsNull() {
		return
	}
	s.count++
	if v.Numeric() {
		s.sum += v.AsFloat()
	}
	if !s.seen {
		s.min, s.max = v, v
		s.seen = true
		return
	}
	if store.Compare(v, s.min) < 0 {
		s.min = v
	}
	if store.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// merge folds another partial state into s (plain aggregates only;
// DISTINCT partials replay value-by-value through distinctSet).
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sum += o.sum
	if !o.seen {
		return
	}
	if !s.seen {
		s.min, s.max, s.seen = o.min, o.max, true
		return
	}
	if store.Compare(o.min, s.min) < 0 {
		s.min = o.min
	}
	if store.Compare(o.max, s.max) > 0 {
		s.max = o.max
	}
}

func (s *aggState) result(fn AggFunc) store.Value {
	switch fn {
	case AggCount:
		return store.IntValue(s.count)
	case AggSum:
		if s.count == 0 {
			return store.NullValue()
		}
		return store.FloatValue(s.sum)
	case AggAvg:
		if s.count == 0 {
			return store.NullValue()
		}
		return store.FloatValue(s.sum / float64(s.count))
	case AggMin:
		if !s.seen {
			return store.NullValue()
		}
		return s.min
	case AggMax:
		if !s.seen {
			return store.NullValue()
		}
		return s.max
	}
	return store.NullValue()
}

// distinctSet dedups a DISTINCT aggregate's inputs by value hash,
// remembering values in first-seen order so partial sets merge with
// the same semantics the serial accumulation has.
type distinctSet struct {
	seen map[uint64]struct{}
	vals []store.Value
}

func newDistinctSet() *distinctSet {
	return &distinctSet{seen: make(map[uint64]struct{})}
}

// insert reports whether v's hash was new.
func (d *distinctSet) insert(v store.Value) bool {
	h := v.Hash()
	if _, ok := d.seen[h]; ok {
		return false
	}
	d.seen[h] = struct{}{}
	d.vals = append(d.vals, v)
	return true
}

// groupEntry pairs the group's key values with per-aggregate states.
type groupEntry struct {
	keys   []store.Value
	states []aggState
	stars  int64
	// distinct[i] dedups inputs for DISTINCT aggregates; nil for
	// plain aggregates.
	distinct []*distinctSet
}

// aggTable is one (partial or final) aggregation hash table with
// deterministic first-seen group order.
type aggTable struct {
	groups []*boundExpr
	aggs   []*AggExpr
	args   []*boundExpr
	table  map[string]*groupEntry
	order  []string
}

func newAggTable(groups []*boundExpr, aggs []*AggExpr, args []*boundExpr) *aggTable {
	return &aggTable{groups: groups, aggs: aggs, args: args, table: make(map[string]*groupEntry)}
}

// add accumulates one input row.
func (t *aggTable) add(r store.Row) error {
	keys := make([]store.Value, len(t.groups))
	for i, g := range t.groups {
		v, err := g.eval(r)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	argv := make([]store.Value, len(t.aggs))
	for i, agg := range t.aggs {
		if agg.Star {
			continue
		}
		v, err := t.args[i].eval(r)
		if err != nil {
			return err
		}
		argv[i] = v
	}
	t.addValues(keys, argv)
	return nil
}

// addValues accumulates one input row whose group keys and aggregate
// arguments are already evaluated — the vectorized path batch-evaluates
// both and feeds them here, so grouping, DISTINCT, and merge semantics
// stay shared between engines. keys is retained by the table on first
// sight of a group; callers must pass a fresh slice per row. argv
// entries for star aggregates are ignored.
func (t *aggTable) addValues(keys []store.Value, argv []store.Value) {
	keyBuf := make([]byte, 0, 32)
	for _, v := range keys {
		keyBuf = store.AppendValue(keyBuf, v)
	}
	k := string(keyBuf)
	e, found := t.table[k]
	if !found {
		e = &groupEntry{
			keys:     keys,
			states:   make([]aggState, len(t.aggs)),
			distinct: make([]*distinctSet, len(t.aggs)),
		}
		for i, agg := range t.aggs {
			if agg.Distinct {
				e.distinct[i] = newDistinctSet()
			}
		}
		t.table[k] = e
		t.order = append(t.order, k)
	}
	for i, agg := range t.aggs {
		if agg.Star {
			e.stars++
			continue
		}
		v := argv[i]
		if agg.Distinct {
			if v.IsNull() || !e.distinct[i].insert(v) {
				continue
			}
		}
		e.states[i].add(agg.Func, v)
	}
}

// merge folds another partial table into t. Partials built over
// contiguous input chunks merged in chunk order reproduce the global
// first-seen group order: every row of chunk w precedes every row of
// chunk w+1 in the original input.
func (t *aggTable) merge(o *aggTable) {
	for _, k := range o.order {
		oe := o.table[k]
		e, found := t.table[k]
		if !found {
			t.table[k] = oe
			t.order = append(t.order, k)
			continue
		}
		e.stars += oe.stars
		for i, agg := range t.aggs {
			if agg.Star {
				continue
			}
			if agg.Distinct {
				// Replay the other partial's distinct values in
				// first-seen order; cross-chunk duplicates drop out.
				for _, v := range oe.distinct[i].vals {
					if e.distinct[i].insert(v) {
						e.states[i].add(agg.Func, v)
					}
				}
				continue
			}
			e.states[i].merge(&oe.states[i])
		}
	}
}

// rows renders the final one-row-per-group output.
func (t *aggTable) rows() []store.Row {
	out := make([]store.Row, 0, len(t.order))
	for _, k := range t.order {
		e := t.table[k]
		row := make(store.Row, 0, len(e.keys)+len(t.aggs))
		row = append(row, e.keys...)
		for i, agg := range t.aggs {
			if agg.Star {
				row = append(row, store.IntValue(e.stars))
				continue
			}
			row = append(row, e.states[i].result(agg.Func))
		}
		out = append(out, row)
	}
	return out
}

// aggIter performs hash aggregation: it drains its input on first
// Next, then streams one row per group (group keys, then aggregates).
type aggIter struct {
	in     iterator
	groups []*boundExpr
	aggs   []*AggExpr
	args   []*boundExpr
	ec     *execCtx

	out []store.Row
	pos int
	run bool
	op  *OpStats
}

func (a *aggIter) Next() (store.Row, bool, error) {
	if !a.run {
		if err := a.drain(); err != nil {
			return nil, false, err
		}
		a.run = true
	}
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	a.op.addOut(1)
	return r, true, nil
}

func (a *aggIter) drain() error {
	final := newAggTable(a.groups, a.aggs, a.args)
	cancel := canceller{ctx: a.ec.ctx}
	for {
		if err := cancel.check(); err != nil {
			return err
		}
		r, ok, err := a.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		a.op.addIn(1)
		if err := final.add(r); err != nil {
			return err
		}
	}
	// A global aggregate over an empty input still yields one row.
	if len(a.groups) == 0 && len(final.order) == 0 {
		final.table[""] = &groupEntry{states: make([]aggState, len(a.aggs))}
		final.order = append(final.order, "")
	}
	a.out = final.rows()
	return nil
}
