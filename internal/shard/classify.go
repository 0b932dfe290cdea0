package shard

import (
	"fmt"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

// class is the execution strategy the classifier picks for a
// statement. The planner is deliberately conservative: any shape it
// cannot prove merge-sound falls back to a full gather, which
// reproduces single-node semantics exactly. The differential matrix
// is what licenses each non-fallback class.
type class int

const (
	// classReplicated: every referenced table is replicated; answer
	// from one healthy shard, prune the rest.
	classReplicated class = iota
	// classScatter: run the statement verbatim on each participating
	// shard and concatenate.
	classScatter
	// classScatterOrdered: push ORDER BY/LIMIT down for per-shard
	// top-k, merge-sort the partials on exposed key columns.
	classScatterOrdered
	// classPartialAgg: per-shard partial aggregation, type-correct
	// re-aggregation at the coordinator, final HAVING/ORDER/LIMIT
	// over the merged groups.
	classPartialAgg
	// classFallback: gather referenced tables to a temporary store
	// and execute the original statement locally.
	classFallback
)

func (c class) String() string {
	switch c {
	case classReplicated:
		return "replicated"
	case classScatter:
		return "scatter"
	case classScatterOrdered:
		return "scatter-ordered"
	case classPartialAgg:
		return "partial-agg"
	default:
		return "gather-fallback"
	}
}

// mergeKey is one coordinator-side sort key of an ordered merge.
type mergeKey struct {
	pos  int // column position in the shard results
	desc bool
}

// plan is the classifier's output: the class plus everything the
// execution paths need.
type plan struct {
	class       class
	participate []int // healthy shard ids running the statement
	pruned      int   // shards excluded by partition-key predicates
	// skipped lists unavailable shards (every replica down) whose rows
	// the answer may need — the predicates did not prune them. Run
	// refuses such plans unless Options.AllowPartial opted in.
	skipped    []int
	shardStmt  *query.SelectStmt
	hiddenKeys int // trailing __k columns appended for the merge
	mergeKeys  []mergeKey
	agg        *aggPlan
}

// aliasInfo is one resolved FROM/JOIN entry.
type aliasInfo struct {
	alias  string
	table  string
	schema *store.Schema
	spec   tableSpec
}

// classify inspects stmt and picks the cheapest strategy whose merge
// is provably equivalent to single-node execution.
func (c *Coordinator) classify(stmt *query.SelectStmt) (*plan, error) {
	healthy := c.healthy()
	if len(healthy) == 0 {
		return nil, &UnavailableError{Shards: c.deadShards()}
	}
	fallback := &plan{class: classFallback, participate: healthy}

	aliases, ok := c.resolveAliases(stmt)
	if !ok {
		// Unknown table or duplicate alias: the fallback engine (or
		// the shard engine it feeds) reports the single-node error.
		return fallback, nil
	}
	partitioned := 0
	for _, a := range aliases {
		if len(a.spec.keys) > 0 {
			partitioned++
		}
	}
	if partitioned == 0 {
		// Replicated tables are whole on every shard; any healthy one
		// answers completely, so down shards cost no rows.
		return &plan{class: classReplicated, participate: healthy[:1], pruned: len(c.shards) - 1}, nil
	}
	// Partitioned rows on an unavailable shard cannot be gathered or
	// scattered over; every plan built past this point carries the
	// list for the coordinator's availability policy.
	fallback.skipped = c.deadShards()
	if hasSubquery(stmt) || hasDistinctAgg(stmt) {
		return fallback, nil
	}
	for _, it := range stmt.Items {
		if len(it.Alias) >= 2 && it.Alias[:2] == "__" {
			// User aliases in the coordinator's reserved namespace
			// would collide with hidden merge columns.
			return fallback, nil
		}
	}
	if partitioned > 1 && !c.coPartitioned(stmt, aliases) {
		return fallback, nil
	}

	participate, pruned, skipped := c.pruneShards(stmt, aliases, healthy)

	isAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && containsAggExpr(it.Expr) {
			isAgg = true
		}
	}
	if isAgg {
		ap, ok := c.buildAggPlan(stmt, aliases)
		if !ok {
			return fallback, nil
		}
		return &plan{class: classPartialAgg, participate: participate, pruned: pruned, skipped: skipped, agg: ap}, nil
	}
	if len(stmt.Order) > 0 {
		sp, keys, hidden, ok := buildOrderedShardStmt(stmt)
		if !ok {
			return fallback, nil
		}
		return &plan{
			class: classScatterOrdered, participate: participate, pruned: pruned, skipped: skipped,
			shardStmt: sp, mergeKeys: keys, hiddenKeys: hidden,
		}, nil
	}
	return &plan{class: classScatter, participate: participate, pruned: pruned, skipped: skipped}, nil
}

// resolveAliases maps the statement's FROM/JOIN entries to tables,
// schemas, and partition specs. ok is false on unknown tables or
// duplicate aliases.
func (c *Coordinator) resolveAliases(stmt *query.SelectStmt) ([]aliasInfo, bool) {
	refs := []query.TableRef{stmt.From}
	for _, j := range stmt.Joins {
		refs = append(refs, j.Table)
	}
	seen := make(map[string]bool, len(refs))
	out := make([]aliasInfo, 0, len(refs))
	for _, r := range refs {
		tab, err := c.shards[0].DB().Table(r.Name)
		if err != nil {
			return nil, false
		}
		alias := r.EffectiveAlias()
		if seen[alias] {
			return nil, false
		}
		seen[alias] = true
		out = append(out, aliasInfo{alias: alias, table: r.Name, schema: tab.Schema(), spec: c.specs[r.Name]})
	}
	return out, true
}

// resolveColumn finds the alias owning cr: by qualifier when present,
// otherwise the unique alias whose schema has the column.
func resolveColumn(aliases []aliasInfo, cr *query.ColumnRef) (int, bool) {
	if cr.Qualifier != "" {
		for i, a := range aliases {
			if a.alias == cr.Qualifier {
				return i, a.schema.ColumnIndex(cr.Name) >= 0
			}
		}
		return 0, false
	}
	found, n := 0, 0
	for i, a := range aliases {
		if a.schema.ColumnIndex(cr.Name) >= 0 {
			found = i
			n++
		}
	}
	return found, n == 1
}

// partitionKeyOf reports whether cr resolves to a partition key,
// returning the owning partitioner and the key column's declared
// kind. Pruning decisions must only route literals of that kind:
// the engine's comparisons coerce INT/FLOAT, so a kind-mismatched
// literal (pre = 5.0) can still match rows, while the partitioner
// would route it arbitrarily.
func partitionKeyOf(aliases []aliasInfo, cr *query.ColumnRef) (Partitioner, store.Kind, bool) {
	ai, ok := resolveColumn(aliases, cr)
	if !ok {
		return nil, store.KindNull, false
	}
	a := aliases[ai]
	for _, k := range a.spec.keys {
		if k.column == cr.Name {
			ci := a.schema.ColumnIndex(cr.Name)
			return k.part, a.schema.Columns[ci].Kind, true
		}
	}
	return nil, store.KindNull, false
}

// conjuncts splits e on top-level ANDs.
func conjuncts(e query.Expr, out []query.Expr) []query.Expr {
	if b, ok := e.(*query.BinaryExpr); ok && b.Op == query.OpAnd {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// coPartitioned reports whether every partitioned alias is connected
// to the others through partition-key equality edges (JOIN ON and
// top-level WHERE conjuncts) over the same Partitioner instance —
// the condition under which the join runs shard-locally.
func (c *Coordinator) coPartitioned(stmt *query.SelectStmt, aliases []aliasInfo) bool {
	parent := make([]int, len(aliases))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	var conds []query.Expr
	for _, j := range stmt.Joins {
		conds = conjuncts(j.On, conds)
	}
	conds = conjuncts(stmt.Where, conds)
	for _, e := range conds {
		b, ok := e.(*query.BinaryExpr)
		if !ok || b.Op != query.OpEq {
			continue
		}
		lc, lok := b.L.(*query.ColumnRef)
		rc, rok := b.R.(*query.ColumnRef)
		if !lok || !rok {
			continue
		}
		lp, _, lok := partitionKeyOf(aliases, lc)
		rp, _, rok := partitionKeyOf(aliases, rc)
		if !lok || !rok || lp != rp {
			continue
		}
		li, _ := resolveColumn(aliases, lc)
		ri, _ := resolveColumn(aliases, rc)
		parent[find(li)] = find(ri)
	}
	root := -1
	for i, a := range aliases {
		if len(a.spec.keys) == 0 {
			continue
		}
		if root < 0 {
			root = find(i)
		} else if find(i) != root {
			return false
		}
	}
	return true
}

// pruneShards intersects the shard sets implied by partition-key
// predicates in the top-level WHERE conjuncts. The returned slice is
// never empty: a contradiction is served by one healthy shard, which
// provably returns zero rows (any qualifying row would have to live
// in the empty intersection). pruned counts against the full shard
// set, before the health filter. skipped lists the unavailable shards
// the predicates did NOT prune — shards whose rows the answer may
// need but cannot reach.
func (c *Coordinator) pruneShards(stmt *query.SelectStmt, aliases []aliasInfo, healthy []int) ([]int, int, []int) {
	in := make([]bool, len(c.shards))
	for i := range in {
		in[i] = true
	}
	intersect := func(ids []int) {
		keep := make([]bool, len(c.shards))
		for _, id := range ids {
			keep[id] = true
		}
		for i := range in {
			in[i] = in[i] && keep[i]
		}
	}
	for _, e := range conjuncts(stmt.Where, nil) {
		switch x := e.(type) {
		case *query.BinaryExpr:
			cr, lit, op, ok := keyComparison(x)
			if !ok {
				break
			}
			p, kind, ok := partitionKeyOf(aliases, cr)
			if !ok {
				break
			}
			switch op {
			case query.OpEq:
				if lit.K != kind {
					// The engine's `=` coerces INT/FLOAT, so a FLOAT
					// literal can match INT-keyed rows the partitioner
					// would route elsewhere. No claim: keep all shards.
					break
				}
				intersect([]int{p.Route(lit)})
			case query.OpGe, query.OpGt, query.OpLe, query.OpLt:
				if lit.K != store.KindInt || kind != store.KindInt {
					break
				}
				v := lit.I
				switch op {
				case query.OpGe:
					intersect(p.RouteRange(&store.Value{K: store.KindInt, I: v}, nil))
				case query.OpGt:
					intersect(p.RouteRange(&store.Value{K: store.KindInt, I: v + 1}, nil))
				case query.OpLe:
					intersect(p.RouteRange(nil, &store.Value{K: store.KindInt, I: v}))
				case query.OpLt:
					intersect(p.RouteRange(nil, &store.Value{K: store.KindInt, I: v - 1}))
				}
			}
		case *query.SubtreeExpr:
			p, kind, ok := partitionKeyOf(aliases, x.Column)
			if !ok {
				break
			}
			id, ok := c.byName[x.Node]
			if !ok {
				break
			}
			switch kind {
			case store.KindInt:
				lo, hi := c.tree.SubtreeInterval(id)
				lov := store.IntValue(int64(lo))
				hiv := store.IntValue(int64(hi))
				intersect(p.RouteRange(&lov, &hiv))
			case store.KindString:
				intersect(routeNames(p, c.tree.SubtreeNames(id)))
			}
		}
	}
	var participate []int
	healthySet := make(map[int]bool, len(healthy))
	for _, id := range healthy {
		healthySet[id] = true
		if in[id] {
			participate = append(participate, id)
		}
	}
	constrained := 0
	var skipped []int
	for id, keep := range in {
		if keep {
			constrained++
			if !healthySet[id] {
				skipped = append(skipped, id)
			}
		}
	}
	pruned := len(c.shards) - constrained
	if len(participate) == 0 {
		participate = healthy[:1]
	}
	return participate, pruned, skipped
}

// routeNames returns the shards owning rows keyed by any of names.
// The answer is exact, not a bound: the partitioner placed every row
// by Route of its key, so a row whose key names a subtree node lives
// on that name's shard — duplicate names and hash-fallback routing
// included.
func routeNames(p Partitioner, names []string) []int {
	hit := make([]bool, p.Shards())
	var ids []int
	for _, name := range names {
		if s := p.Route(store.StringValue(name)); !hit[s] {
			hit[s] = true
			ids = append(ids, s)
			if len(ids) == len(hit) {
				break
			}
		}
	}
	return ids
}

// keyComparison matches `col <op> literal` (either operand order,
// flipping the operator when the literal is on the left).
func keyComparison(b *query.BinaryExpr) (*query.ColumnRef, store.Value, query.BinOp, bool) {
	if cr, ok := b.L.(*query.ColumnRef); ok {
		if lit, ok := b.R.(*query.Literal); ok {
			return cr, lit.Val, b.Op, true
		}
	}
	if cr, ok := b.R.(*query.ColumnRef); ok {
		if lit, ok := b.L.(*query.Literal); ok {
			flip := map[query.BinOp]query.BinOp{
				query.OpEq: query.OpEq, query.OpLt: query.OpGt, query.OpLe: query.OpGe,
				query.OpGt: query.OpLt, query.OpGe: query.OpLe,
			}
			if f, ok := flip[b.Op]; ok {
				return cr, lit.Val, f, true
			}
		}
	}
	return nil, store.Value{}, 0, false
}

// buildOrderedShardStmt prepares the per-shard statement of a top-k
// merge: ORDER BY and LIMIT stay pushed down (local top-k), and every
// sort key is exposed as an output column — reusing an existing item
// when one renders identically (or is aliased to the key's name),
// appending a trailing hidden __k column otherwise.
func buildOrderedShardStmt(stmt *query.SelectStmt) (*query.SelectStmt, []mergeKey, int, bool) {
	for _, it := range stmt.Items {
		if it.Star {
			// Key positions within a * expansion depend on schema
			// internals; not worth the coupling.
			return nil, nil, 0, false
		}
	}
	sp := cloneStmt(stmt)
	var keys []mergeKey
	hidden := 0
	for _, k := range stmt.Order {
		pos := -1
		render := k.Expr.String()
		for i, it := range stmt.Items {
			if it.Expr.String() == render {
				pos = i
				break
			}
			if cr, ok := k.Expr.(*query.ColumnRef); ok && cr.Qualifier == "" && it.Alias == cr.Name {
				pos = i
				break
			}
		}
		if pos < 0 {
			pos = len(sp.Items)
			sp.Items = append(sp.Items, query.SelectItem{
				Expr:  cloneExpr(k.Expr),
				Alias: fmt.Sprintf("__k%d", hidden),
			})
			hidden++
		}
		keys = append(keys, mergeKey{pos: pos, desc: k.Desc})
	}
	return sp, keys, hidden, true
}

// hasSubquery reports whether the statement contains a scalar or IN
// subquery anywhere (items, joins, where, group by, having, order).
func hasSubquery(stmt *query.SelectStmt) bool {
	found := false
	visitStmtExprs(stmt, func(e query.Expr) {
		switch e.(type) {
		case *query.SubqueryExpr, *query.InSubqueryExpr:
			found = true
		}
	})
	return found
}

// hasDistinctAgg reports whether any aggregate is DISTINCT — its
// dedup set cannot be reconstructed from per-shard partials.
func hasDistinctAgg(stmt *query.SelectStmt) bool {
	found := false
	visitStmtExprs(stmt, func(e query.Expr) {
		if a, ok := e.(*query.AggExpr); ok && a.Distinct {
			found = true
		}
	})
	return found
}

func containsAggExpr(e query.Expr) bool {
	found := false
	walk(e, func(x query.Expr) {
		if _, ok := x.(*query.AggExpr); ok {
			found = true
		}
	})
	return found
}

// visitStmtExprs walks every expression position of the statement,
// descending into subquery statements (unlike the engine's walker,
// which treats them as closed scopes).
func visitStmtExprs(stmt *query.SelectStmt, fn func(query.Expr)) {
	for _, it := range stmt.Items {
		walk(it.Expr, fn)
	}
	for _, j := range stmt.Joins {
		walk(j.On, fn)
	}
	walk(stmt.Where, fn)
	for _, g := range stmt.GroupBy {
		walk(g, fn)
	}
	walk(stmt.Having, fn)
	for _, o := range stmt.Order {
		walk(o.Expr, fn)
	}
}

// walk visits e depth-first, recursing into subquery statements.
func walk(e query.Expr, fn func(query.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *query.BinaryExpr:
		walk(x.L, fn)
		walk(x.R, fn)
	case *query.NotExpr:
		walk(x.E, fn)
	case *query.NegExpr:
		walk(x.E, fn)
	case *query.AggExpr:
		walk(x.Arg, fn)
	case *query.SubtreeExpr:
		walk(x.Column, fn)
	case *query.AncestorExpr:
		walk(x.Column, fn)
	case *query.TanimotoExpr:
		walk(x.Column, fn)
	case *query.SubqueryExpr:
		visitStmtExprs(x.Stmt, fn)
	case *query.InSubqueryExpr:
		walk(x.Needle, fn)
		visitStmtExprs(x.Stmt, fn)
	}
}

// referencedTables lists every table the statement touches, including
// tables referenced only inside subqueries, in first-reference order.
func referencedTables(stmt *query.SelectStmt) []string {
	var out []string
	seen := make(map[string]bool)
	var collect func(s *query.SelectStmt)
	collect = func(s *query.SelectStmt) {
		add := func(name string) {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		add(s.From.Name)
		for _, j := range s.Joins {
			add(j.Table.Name)
		}
		visitStmtExprs(s, func(e query.Expr) {
			switch x := e.(type) {
			case *query.SubqueryExpr:
				collect(x.Stmt)
			case *query.InSubqueryExpr:
				collect(x.Stmt)
			}
		})
	}
	collect(stmt)
	return out
}

// cloneStmt deep-copies a statement so concurrent shard executions
// (whose optimizers rewrite plan inputs derived from the AST) never
// share expression nodes.
func cloneStmt(stmt *query.SelectStmt) *query.SelectStmt {
	if stmt == nil {
		return nil
	}
	out := &query.SelectStmt{
		Explain: stmt.Explain,
		Analyze: stmt.Analyze,
		From:    stmt.From,
		Limit:   stmt.Limit,
	}
	for _, it := range stmt.Items {
		out.Items = append(out.Items, query.SelectItem{Expr: cloneExpr(it.Expr), Alias: it.Alias, Star: it.Star})
	}
	for _, j := range stmt.Joins {
		out.Joins = append(out.Joins, query.JoinClause{Table: j.Table, On: cloneExpr(j.On)})
	}
	out.Where = cloneExpr(stmt.Where)
	for _, g := range stmt.GroupBy {
		out.GroupBy = append(out.GroupBy, cloneExpr(g))
	}
	out.Having = cloneExpr(stmt.Having)
	for _, o := range stmt.Order {
		out.Order = append(out.Order, query.OrderKey{Expr: cloneExpr(o.Expr), Desc: o.Desc})
	}
	return out
}

// cloneExpr deep-copies an expression tree.
func cloneExpr(e query.Expr) query.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *query.ColumnRef:
		c := *x
		return &c
	case *query.Literal:
		c := *x
		return &c
	case *query.BinaryExpr:
		return &query.BinaryExpr{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	case *query.NotExpr:
		return &query.NotExpr{E: cloneExpr(x.E)}
	case *query.NegExpr:
		return &query.NegExpr{E: cloneExpr(x.E)}
	case *query.SubtreeExpr:
		return &query.SubtreeExpr{Column: cloneExpr(x.Column).(*query.ColumnRef), Node: x.Node}
	case *query.AncestorExpr:
		return &query.AncestorExpr{Column: cloneExpr(x.Column).(*query.ColumnRef), Node: x.Node}
	case *query.TanimotoExpr:
		return &query.TanimotoExpr{Column: cloneExpr(x.Column).(*query.ColumnRef), SMILES: x.SMILES}
	case *query.AggExpr:
		return &query.AggExpr{Func: x.Func, Arg: cloneExpr(x.Arg), Star: x.Star, Distinct: x.Distinct}
	case *query.SubqueryExpr:
		return &query.SubqueryExpr{Stmt: cloneStmt(x.Stmt)}
	case *query.InSubqueryExpr:
		return &query.InSubqueryExpr{Needle: cloneExpr(x.Needle), Stmt: cloneStmt(x.Stmt)}
	default:
		// Unknown node kinds would defeat the deep copy; fail loudly
		// so a new AST node cannot silently introduce a data race.
		panic(fmt.Sprintf("shard: cloneExpr: unhandled %T", e))
	}
}
