package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"drugtree/internal/store"
)

// iterator is the Volcano operator interface. Next returns the next
// row, a validity flag (false at end of stream), and any error.
type iterator interface {
	Next() (store.Row, bool, error)
}

// ExecStats counts work done by one execution, used by experiments to
// show *why* the optimized engine is faster. Counters are updated with
// atomic adds so parallel workers can share one ExecStats; read them
// only after the query returns (all workers are joined by then).
type ExecStats struct {
	RowsScanned  int64 // rows read from base tables
	RowsIndexed  int64 // rows fetched through an index
	RowsJoined   int64 // rows emitted by join operators
	RowsReturned int64
	// Ops holds per-operator counters, one entry per Result.Plan line
	// in the same order. They are filled while rows stream out and
	// rendered by EXPLAIN ANALYZE (Result.AnnotatedPlan).
	Ops []*OpStats
}

// Snapshot returns a consistent copy of the counters using atomic
// loads. A plain struct copy (*s) would race with parallel workers
// still doing atomic adds; every read of a live ExecStats goes
// through here.
func (s *ExecStats) Snapshot() ExecStats {
	return ExecStats{
		RowsScanned:  atomic.LoadInt64(&s.RowsScanned),
		RowsIndexed:  atomic.LoadInt64(&s.RowsIndexed),
		RowsJoined:   atomic.LoadInt64(&s.RowsJoined),
		RowsReturned: atomic.LoadInt64(&s.RowsReturned),
		Ops:          s.Ops,
	}
}

// OpStats counts one physical operator's work: rows in (where the
// operator tracks it), rows out, and — for vectorized operators —
// batches out. Counters are written only from the single-threaded
// streaming driver (parallel workers hand their output to a streaming
// operator first), so plain increments suffice.
type OpStats struct {
	Name    string // operator description (the plan line, unindented)
	RowsIn  int64  // rows entering the operator; 0 when untracked
	RowsOut int64  // rows emitted
	Batches int64  // batches emitted (vectorized execution only)
}

// addIn records rows entering the operator.
func (o *OpStats) addIn(n int64) {
	if o != nil {
		o.RowsIn += n
	}
}

// addOut records emitted rows.
func (o *OpStats) addOut(n int64) {
	if o != nil {
		o.RowsOut += n
	}
}

// emit records one emitted batch and its live rows.
func (o *OpStats) emit(b *batch) {
	if o != nil {
		o.Batches++
		o.RowsOut += int64(b.live())
	}
}

// selectivity returns RowsOut/RowsIn, or -1 when input is untracked.
func (o *OpStats) selectivity() float64 {
	if o == nil || o.RowsIn == 0 {
		return -1
	}
	return float64(o.RowsOut) / float64(o.RowsIn)
}

// execCtx threads shared execution state through operator builders.
type execCtx struct {
	ctx   context.Context
	cat   Catalog
	snap  *store.SnapshotHandle // pinned statement snapshot; nil reads latest
	opts  Options
	stats *ExecStats
	plan  []string // physical plan description lines (depth-first)
	para  int      // vectorized worker count (≥1); 1 is the serial path
}

// env builds a binding environment carrying the execution context (so
// uncorrelated subqueries run under the same cancellation scope and
// read the same pinned snapshot).
func (c *execCtx) env(schema *planSchema) bindEnv {
	return bindEnv{ctx: c.ctx, schema: schema, cat: c.cat, snap: c.snap, tree: c.cat.Tree(), opts: c.opts}
}

// view returns the statement's read view of a table: the pinned
// snapshot's frozen version when one is held, the live latest-version
// table otherwise. Tables created after the pin also fall back to the
// live table (the snapshot cannot cover them).
func (c *execCtx) view(name string) (*store.TableView, error) {
	if c.snap != nil {
		if tv, err := c.snap.View(name); err == nil {
			return tv, nil
		}
	}
	t, err := c.cat.Table(name)
	if err != nil {
		return nil, err
	}
	return t.LatestView(), nil
}

// note appends a plan line and allocates its per-operator counter
// slot (plan lines and ExecStats.Ops stay 1:1 so EXPLAIN ANALYZE can
// zip them back together).
func (c *execCtx) note(depth int, format string, args ...any) *OpStats {
	line := fmt.Sprintf(format, args...)
	c.plan = append(c.plan, strings.Repeat("  ", depth)+line)
	op := &OpStats{Name: line}
	c.stats.Ops = append(c.stats.Ops, op)
	return op
}

// buildIterator lowers a logical plan node to a physical operator.
func buildIterator(p LogicalPlan, ec *execCtx, depth int) (iterator, error) {
	switch n := p.(type) {
	case *ScanNode:
		return buildScan(n, ec, depth)
	case *FilterNode:
		pred, err := bind(n.Pred, ec.env(n.Input.Schema()))
		if err != nil {
			return nil, err
		}
		op := ec.note(depth, "Filter %s", n.Pred)
		in, err := buildIterator(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, pred: pred, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	case *ProjectNode:
		op := ec.note(depth, "%s", n.describe())
		exprs := make([]*boundExpr, len(n.Exprs))
		for i, e := range n.Exprs {
			be, err := bind(e, ec.env(n.Input.Schema()))
			if err != nil {
				return nil, err
			}
			exprs[i] = be
		}
		in, err := buildIterator(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &projectIter{in: in, exprs: exprs, op: op}, nil
	case *JoinNode:
		return buildJoin(n, ec, depth)
	case *AggNode:
		return buildAgg(n, ec, depth)
	case *SortNode:
		keys := make([]*boundExpr, len(n.Keys))
		descs := make([]bool, len(n.Keys))
		for i, k := range n.Keys {
			be, err := bind(k.Expr, ec.env(n.Input.Schema()))
			if err != nil {
				return nil, err
			}
			keys[i] = be
			descs[i] = k.Desc
		}
		op := ec.note(depth, "%s", n.describe())
		in, err := buildIterator(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &sortIter{in: in, keys: keys, descs: descs, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	case *LimitNode:
		// ORDER BY + LIMIT fuses into a bounded-heap top-k when the
		// optimizer is allowed to choose physical operators. The sort
		// may sit directly below the limit, or below a projection
		// (the hidden-sort-column shape): Limit(Project(Sort)) runs
		// as Project(TopK) — projection preserves order and count.
		if proj, ok := n.Input.(*ProjectNode); ok && ec.opts.UseIndexes && n.N > 0 {
			if sortNode, ok := proj.Input.(*SortNode); ok {
				inner := &LimitNode{Input: sortNode, N: n.N}
				outer := *proj
				outer.Input = inner
				return buildIterator(&outer, ec, depth)
			}
		}
		if sortNode, ok := n.Input.(*SortNode); ok && ec.opts.UseIndexes && n.N > 0 {
			keys := make([]*boundExpr, len(sortNode.Keys))
			descs := make([]bool, len(sortNode.Keys))
			for i, k := range sortNode.Keys {
				be, err := bind(k.Expr, ec.env(sortNode.Input.Schema()))
				if err != nil {
					return nil, err
				}
				keys[i] = be
				descs[i] = k.Desc
			}
			op := ec.note(depth, "TopK %d (%s)", n.N, sortNode.describe())
			in, err := buildIterator(sortNode.Input, ec, depth+1)
			if err != nil {
				return nil, err
			}
			return &topKIter{in: in, keys: keys, descs: descs, k: n.N, cancel: canceller{ctx: ec.ctx}, op: op}, nil
		}
		op := ec.note(depth, "Limit %d", n.N)
		in, err := buildIterator(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, n: n.N, op: op}, nil
	}
	return nil, fmt.Errorf("query: cannot execute %T", p)
}

// --- Scans ---

// accessPath describes the chosen way into a table.
type accessPath struct {
	kind   string // "seqscan", "indexeq", "indexkeyset", "indexrange"
	column string
	eq     store.Value
	lo, hi *store.Value
	loOpen bool // lo bound is exclusive (>)
	hiOpen bool // hi bound is exclusive (<)
	// keys and subtree describe an indexkeyset path: the subtree's
	// node names, each probed in the index on column.
	keys    []store.Value
	subtree *SubtreeExpr
	// residual predicates evaluated per row.
	residual []Expr
}

// keySetMaxShare is the key-set cost rule's cut-off: WITHIN_SUBTREE
// over an indexed name column probes the index once per subtree name
// when the estimated probe rows (keys × rows/NDV) are at most this
// share of the table's rows, and scans otherwise. On the 29,803-row
// activities table of DESIGN §4 the probes cost ≈0.44 µs per matched
// row against ≈0.2 µs per scanned row, so the two paths cross at about
// half the table (5.1 ms vs 5.3 ms at 15,067 rows). The estimate
// counts internal-node names, which rarely key rows, so it errs
// towards the scan.
const keySetMaxShare = 0.5

// chooseAccessPath inspects pushed conjuncts, the table's indexes
// and — for the key-set path — the catalog's tree and statistics.
func chooseAccessPath(n *ScanNode, t *store.Table, cat Catalog, useIndexes bool) accessPath {
	path := accessPath{kind: "seqscan", residual: n.Conjuncts}
	if !useIndexes {
		return path
	}
	// Equality on an indexed column wins.
	for i, c := range n.Conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != OpEq {
			continue
		}
		col, lit := extractColLit(b)
		if col == nil || lit == nil {
			continue
		}
		if _, indexed := t.HasIndex(col.Name); !indexed {
			continue
		}
		return accessPath{kind: "indexeq", column: col.Name, eq: lit.Val, residual: withoutConjunct(n.Conjuncts, i)}
	}
	if ks, ok := chooseKeySet(n, t, cat); ok {
		return ks
	}
	// Range bounds on one B+-tree-indexed column.
	type bound struct {
		v    store.Value
		open bool
	}
	los := map[string]bound{}
	his := map[string]bound{}
	usable := map[string][]int{}
	for i, c := range n.Conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok {
			continue
		}
		col, lit := extractColLit(b)
		if col == nil || lit == nil {
			continue
		}
		if typ, indexed := t.HasIndex(col.Name); !indexed || typ != store.IndexBTree {
			continue
		}
		// Normalize to col OP lit orientation.
		op := b.Op
		if _, isCol := b.R.(*ColumnRef); isCol {
			// lit OP col → flip.
			switch op {
			case OpLt:
				op = OpGt
			case OpLe:
				op = OpGe
			case OpGt:
				op = OpLt
			case OpGe:
				op = OpLe
			}
		}
		switch op {
		case OpGe:
			if cur, ok := los[col.Name]; !ok || store.Compare(lit.Val, cur.v) > 0 {
				los[col.Name] = bound{lit.Val, false}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpGt:
			if cur, ok := los[col.Name]; !ok || store.Compare(lit.Val, cur.v) >= 0 {
				los[col.Name] = bound{lit.Val, true}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpLe:
			if cur, ok := his[col.Name]; !ok || store.Compare(lit.Val, cur.v) < 0 {
				his[col.Name] = bound{lit.Val, false}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpLt:
			if cur, ok := his[col.Name]; !ok || store.Compare(lit.Val, cur.v) <= 0 {
				his[col.Name] = bound{lit.Val, true}
			}
			usable[col.Name] = append(usable[col.Name], i)
		}
	}
	// Pick the column with both bounds if any, else any bounded one.
	bestCol := ""
	for col := range usable {
		_, hasLo := los[col]
		_, hasHi := his[col]
		if hasLo && hasHi {
			bestCol = col
			break
		}
		if bestCol == "" {
			bestCol = col
		}
	}
	if bestCol == "" {
		return path
	}
	out := accessPath{kind: "indexrange", column: bestCol}
	if b, ok := los[bestCol]; ok {
		v := b.v
		out.lo = &v
		out.loOpen = b.open
	}
	if b, ok := his[bestCol]; ok {
		v := b.v
		out.hi = &v
		out.hiOpen = b.open
	}
	used := map[int]bool{}
	for _, i := range usable[bestCol] {
		used[i] = true
	}
	for i, c := range n.Conjuncts {
		if !used[i] {
			out.residual = append(out.residual, c)
		}
	}
	// Exclusive bounds are re-checked as residuals (the index range
	// is inclusive).
	if out.loOpen || out.hiOpen {
		for _, i := range usable[bestCol] {
			out.residual = append(out.residual, n.Conjuncts[i])
		}
	}
	return out
}

// chooseKeySet serves WITHIN_SUBTREE(col, node) on an indexed STRING
// column, which holds node names rather than preorder numbers, with
// one index probe per name in the subtree — when the cost rule
// (keySetMaxShare) says the probes read fewer rows than a scan.
func chooseKeySet(n *ScanNode, t *store.Table, cat Catalog) (accessPath, bool) {
	tree := cat.Tree()
	if tree == nil {
		return accessPath{}, false
	}
	schema := t.Schema()
	for i, c := range n.Conjuncts {
		sub, ok := c.(*SubtreeExpr)
		if !ok {
			continue
		}
		ci := schema.ColumnIndex(sub.Column.Name)
		if ci < 0 || schema.Columns[ci].Kind != store.KindString {
			continue
		}
		if _, indexed := t.HasIndex(sub.Column.Name); !indexed {
			continue
		}
		node, err := findTreeNode(tree, sub.Node)
		if err != nil {
			continue // binding the scan's filter reports it
		}
		st, err := cat.Stats(n.Table)
		if err != nil {
			continue
		}
		names := tree.SubtreeNames(node)
		rows := float64(st.Rows)
		if float64(len(names))*rows*st.SelectivityEqual(sub.Column.Name) > keySetMaxShare*rows {
			continue
		}
		keys := make([]store.Value, len(names))
		for k, name := range names {
			keys[k] = store.StringValue(name)
		}
		return accessPath{kind: "indexkeyset", column: sub.Column.Name, keys: keys, subtree: sub,
			residual: withoutConjunct(n.Conjuncts, i)}, true
	}
	return accessPath{}, false
}

// withoutConjunct returns cs minus its i-th element, in a new slice.
func withoutConjunct(cs []Expr, i int) []Expr {
	out := make([]Expr, 0, len(cs)-1)
	out = append(out, cs[:i]...)
	return append(out, cs[i+1:]...)
}

func buildScan(n *ScanNode, ec *execCtx, depth int) (iterator, error) {
	tv, err := ec.view(n.Table)
	if err != nil {
		return nil, err
	}
	path := chooseAccessPath(n, tv.Table(), ec.cat, ec.opts.UseIndexes)
	var residual *boundExpr
	if len(path.residual) > 0 {
		be, err := bind(joinConjuncts(path.residual), ec.env(n.schema))
		if err != nil {
			return nil, err
		}
		residual = be
	}
	if path.kind != "seqscan" {
		op, ids, err := indexLookup(n.Table, path, tv, ec, depth)
		if err != nil {
			return nil, err
		}
		rows := tv.Rows(ids)
		atomic.AddInt64(&ec.stats.RowsIndexed, int64(len(rows)))
		op.addIn(int64(len(rows)))
		return &sliceIter{rows: rows, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	}
	op := ec.note(depth, "SeqScan %s%s", n.Table, residualNote(path))
	var rows []store.Row
	cancel := canceller{ctx: ec.ctx}
	var scanErr error
	tv.Scan(func(_ int64, r store.Row) bool {
		if scanErr = cancel.check(); scanErr != nil {
			return false
		}
		rows = append(rows, r.Clone())
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	atomic.AddInt64(&ec.stats.RowsScanned, int64(len(rows)))
	op.addIn(int64(len(rows)))
	return &sliceIter{rows: rows, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

// indexLookup notes an index path's plan line — the same text in
// both engines — and returns the IDs of the rows it selects at the
// view's version.
func indexLookup(table string, p accessPath, tv *store.TableView, ec *execCtx, depth int) (*OpStats, []int64, error) {
	switch p.kind {
	case "indexeq":
		op := ec.note(depth, "IndexScan %s (%s = %v)%s", table, p.column, p.eq, residualNote(p))
		ids, err := tv.LookupEqual(p.column, p.eq)
		return op, ids, err
	case "indexkeyset":
		op := ec.note(depth, "IndexKeySetScan %s (%s: %d keys)%s", table, p.subtree, len(p.keys), residualNote(p))
		ids, err := tv.LookupIn(p.column, p.keys)
		return op, ids, err
	default: // indexrange
		op := ec.note(depth, "IndexRangeScan %s (%s in [%s, %s])%s", table, p.column,
			boundStr(p.lo), boundStr(p.hi), residualNote(p))
		ids, err := tv.LookupRange(p.column, p.lo, p.hi)
		return op, ids, err
	}
}

func residualNote(p accessPath) string {
	if len(p.residual) == 0 {
		return ""
	}
	parts := make([]string, len(p.residual))
	for i, c := range p.residual {
		parts[i] = c.String()
	}
	return " filter: " + strings.Join(parts, " AND ")
}

func boundStr(v *store.Value) string {
	if v == nil {
		return "∞"
	}
	return v.String()
}

// sliceIter iterates a materialized row slice with an optional
// residual predicate.
type sliceIter struct {
	rows     []store.Row
	pos      int
	residual *boundExpr
	stats    *ExecStats
	cancel   canceller
	op       *OpStats
}

func (s *sliceIter) Next() (store.Row, bool, error) {
	for s.pos < len(s.rows) {
		if err := s.cancel.check(); err != nil {
			return nil, false, err
		}
		r := s.rows[s.pos]
		s.pos++
		if s.residual != nil {
			ok, err := s.residual.evalBool(r)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
		}
		s.op.addOut(1)
		return r, true, nil
	}
	return nil, false, nil
}

// --- Filter / Project ---

type filterIter struct {
	in     iterator
	pred   *boundExpr
	cancel canceller
	op     *OpStats
}

func (f *filterIter) Next() (store.Row, bool, error) {
	for {
		if err := f.cancel.check(); err != nil {
			return nil, false, err
		}
		r, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.op.addIn(1)
		match, err := f.pred.evalBool(r)
		if err != nil {
			return nil, false, err
		}
		if match {
			f.op.addOut(1)
			return r, true, nil
		}
	}
}

type projectIter struct {
	in    iterator
	exprs []*boundExpr
	op    *OpStats
}

func (p *projectIter) Next() (store.Row, bool, error) {
	r, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(store.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.eval(r)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	p.op.addOut(1)
	return out, true, nil
}

// --- Joins ---

// buildJoin picks hash join for equi-conditions, nested loop
// otherwise.
func buildJoin(n *JoinNode, ec *execCtx, depth int) (iterator, error) {
	leftSchema, rightSchema := n.Left.Schema(), n.Right.Schema()
	conjs := splitConjuncts(n.Cond)
	var leftKeys, rightKeys []*boundExpr
	var residual []Expr
	for _, c := range conjs {
		if b, ok := c.(*BinaryExpr); ok && b.Op == OpEq {
			lcol, lOK := b.L.(*ColumnRef)
			rcol, rOK := b.R.(*ColumnRef)
			if lOK && rOK {
				// Which side does each belong to?
				if _, err := leftSchema.resolve(lcol); err == nil {
					if _, err := rightSchema.resolve(rcol); err == nil {
						lk, _ := bind(lcol, ec.env(leftSchema))
						rk, _ := bind(rcol, ec.env(rightSchema))
						leftKeys = append(leftKeys, lk)
						rightKeys = append(rightKeys, rk)
						continue
					}
				}
				if _, err := leftSchema.resolve(rcol); err == nil {
					if _, err := rightSchema.resolve(lcol); err == nil {
						lk, _ := bind(rcol, ec.env(leftSchema))
						rk, _ := bind(lcol, ec.env(rightSchema))
						leftKeys = append(leftKeys, lk)
						rightKeys = append(rightKeys, rk)
						continue
					}
				}
			}
		}
		if lit, ok := c.(*Literal); ok && lit.Val.K == store.KindBool && lit.Val.Bool() {
			continue // constant TRUE from pushdown
		}
		residual = append(residual, c)
	}
	var residualBound *boundExpr
	if len(residual) > 0 {
		be, err := bind(joinConjuncts(residual), ec.env(n.schema))
		if err != nil {
			return nil, err
		}
		residualBound = be
	}
	// Index merge join: both sides are scans whose join columns carry
	// B+-tree indexes and neither side has a better access path.
	if ls, rs, lcol, rcol, ok := mergeJoinable(n, leftKeys, rightKeys, ec); ok {
		lt, _ := ec.cat.Table(ls.Table)
		rt, _ := ec.cat.Table(rs.Table)
		if chooseAccessPath(ls, lt, ec.cat, true).kind == "seqscan" &&
			chooseAccessPath(rs, rt, ec.cat, true).kind == "seqscan" {
			op := ec.note(depth, "MergeJoin (%s = %s)%s", lcol, rcol, joinResidualNote(residual))
			li, lkIdx, err := buildOrderedScan(ls, lcol, ec, depth+1)
			if err != nil {
				return nil, err
			}
			ri, rkIdx, err := buildOrderedScan(rs, rcol, ec, depth+1)
			if err != nil {
				return nil, err
			}
			return newMergeJoin(li, ri, lkIdx, rkIdx, residualBound, ec, op)
		}
	}
	var op *OpStats
	if len(leftKeys) > 0 {
		op = ec.note(depth, "HashJoin (%d key(s))%s", len(leftKeys), joinResidualNote(residual))
	} else {
		op = ec.note(depth, "NestedLoopJoin%s", joinResidualNote(residual))
	}
	left, err := buildIterator(n.Left, ec, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := buildIterator(n.Right, ec, depth+1)
	if err != nil {
		return nil, err
	}
	if len(leftKeys) > 0 {
		return newHashJoin(left, right, leftKeys, rightKeys, residualBound, ec, op)
	}
	return newNestedLoopJoin(left, right, residualBound, ec, op)
}

func joinResidualNote(res []Expr) string {
	if len(res) == 0 {
		return ""
	}
	parts := make([]string, len(res))
	for i, c := range res {
		parts[i] = c.String()
	}
	return " residual: " + strings.Join(parts, " AND ")
}

// hashJoin builds a hash table on the right input and probes with the
// left, emitting left⧺right rows.
type hashJoin struct {
	left      iterator
	leftKeys  []*boundExpr
	table     map[uint64][]store.Row
	rightRows [][]store.Row // current match list
	cur       store.Row     // current left row
	matchPos  int
	matches   []store.Row
	residual  *boundExpr
	stats     *ExecStats
	cancel    canceller
	op        *OpStats
}

func hashKeys(keys []*boundExpr, r store.Row) (uint64, bool, error) {
	var h uint64 = 14695981039346656037
	for _, k := range keys {
		v, err := k.eval(r)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil // NULL keys never join
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

func newHashJoin(left, right iterator, leftKeys, rightKeys []*boundExpr, residual *boundExpr, ec *execCtx, op *OpStats) (iterator, error) {
	table := make(map[uint64][]store.Row)
	cancel := canceller{ctx: ec.ctx}
	for {
		if err := cancel.check(); err != nil {
			return nil, err
		}
		r, ok, err := right.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		h, valid, err := hashKeys(rightKeys, r)
		if err != nil {
			return nil, err
		}
		if valid {
			table[h] = append(table[h], r)
		}
	}
	return &hashJoin{left: left, leftKeys: leftKeys, table: table, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

func (j *hashJoin) Next() (store.Row, bool, error) {
	for {
		if err := j.cancel.check(); err != nil {
			return nil, false, err
		}
		for j.matchPos < len(j.matches) {
			right := j.matches[j.matchPos]
			j.matchPos++
			out := make(store.Row, 0, len(j.cur)+len(right))
			out = append(out, j.cur...)
			out = append(out, right...)
			if j.residual != nil {
				ok, err := j.residual.evalBool(out)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
			}
			atomic.AddInt64(&j.stats.RowsJoined, 1)
			j.op.addOut(1)
			return out, true, nil
		}
		l, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.op.addIn(1)
		h, valid, err := hashKeys(j.leftKeys, l)
		if err != nil {
			return nil, false, err
		}
		if !valid {
			continue
		}
		j.cur = l
		j.matches = j.table[h]
		j.matchPos = 0
	}
}

// nestedLoopJoin materializes the right side and loops.
type nestedLoopJoin struct {
	left     iterator
	rights   []store.Row
	cur      store.Row
	pos      int
	started  bool
	residual *boundExpr
	stats    *ExecStats
	cancel   canceller
	op       *OpStats
}

func newNestedLoopJoin(left, right iterator, residual *boundExpr, ec *execCtx, op *OpStats) (iterator, error) {
	rights, err := drainAll(ec.ctx, right)
	if err != nil {
		return nil, err
	}
	return &nestedLoopJoin{left: left, rights: rights, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

func (j *nestedLoopJoin) Next() (store.Row, bool, error) {
	for {
		if err := j.cancel.check(); err != nil {
			return nil, false, err
		}
		if !j.started || j.pos >= len(j.rights) {
			l, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.op.addIn(1)
			j.cur = l
			j.pos = 0
			j.started = true
		}
		for j.pos < len(j.rights) {
			right := j.rights[j.pos]
			j.pos++
			out := make(store.Row, 0, len(j.cur)+len(right))
			out = append(out, j.cur...)
			out = append(out, right...)
			if j.residual != nil {
				ok, err := j.residual.evalBool(out)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
			}
			atomic.AddInt64(&j.stats.RowsJoined, 1)
			j.op.addOut(1)
			return out, true, nil
		}
	}
}

// --- Sort / Limit ---

type sortIter struct {
	in     iterator
	keys   []*boundExpr
	descs  []bool
	cancel canceller
	rows   []store.Row
	sorted bool
	pos    int
	op     *OpStats
}

func (s *sortIter) Next() (store.Row, bool, error) {
	if !s.sorted {
		type keyed struct {
			row  store.Row
			keys []store.Value
		}
		var all []keyed
		for {
			if err := s.cancel.check(); err != nil {
				return nil, false, err
			}
			r, ok, err := s.in.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			ks := make([]store.Value, len(s.keys))
			for i, k := range s.keys {
				v, err := k.eval(r)
				if err != nil {
					return nil, false, err
				}
				ks[i] = v
			}
			all = append(all, keyed{r, ks})
		}
		sort.SliceStable(all, func(i, j int) bool {
			for k := range s.keys {
				c := store.Compare(all[i].keys[k], all[j].keys[k])
				if c == 0 {
					continue
				}
				if s.descs[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		s.rows = make([]store.Row, len(all))
		for i, kr := range all {
			s.rows[i] = kr.row
		}
		s.sorted = true
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	s.op.addOut(1)
	return r, true, nil
}

type limitIter struct {
	in   iterator
	n    int
	seen int
	op   *OpStats
}

func (l *limitIter) Next() (store.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	r, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	l.op.addOut(1)
	return r, true, nil
}
