package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// Answer checks. Every result the engine returns during a timed
// window is fingerprinted outside the op's timed interval; the first
// result of each distinct statement is kept and, after the window,
// compared with the answer of an oracle engine. Float aggregates may
// differ in their last bits between engines (summation order), so
// fingerprints round floats to 7 significant digits and the oracle
// comparison allows a relative error of 1e-9.

// canon renders one value for the sort keys of multiset comparison,
// floats rounded as fingerprint rounds them.
func canon(v store.Value) string {
	switch {
	case v.IsNull():
		return "∅"
	case v.K == store.KindFloat:
		return strconv.FormatFloat(v.F, 'e', 6, 64)
	default:
		return v.String()
	}
}

func rowKey(r store.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(canon(v))
	}
	return b.String()
}

// fingerprint hashes a row multiset independently of row order
// (FNV-1a over each row's canonical values, summed). It runs on every
// result inside the closed loop, so it does not allocate.
func fingerprint(rows []store.Row) uint64 {
	const prime = 1099511628211
	var sum uint64
	var buf [32]byte
	for _, r := range rows {
		h := uint64(14695981039346656037)
		mix := func(b byte) { h = (h ^ uint64(b)) * prime }
		for _, v := range r {
			switch {
			case v.IsNull():
				mix(0)
			case v.K == store.KindString:
				for i := 0; i < len(v.S); i++ {
					mix(v.S[i])
				}
			case v.K == store.KindFloat:
				for _, b := range strconv.AppendFloat(buf[:0], v.F, 'e', 6, 64) {
					mix(b)
				}
			case v.K == store.KindBool:
				mix(2 + byte(v.I&1))
			default:
				for _, b := range strconv.AppendInt(buf[:0], v.I, 10) {
					mix(b)
				}
			}
			mix(0x1f)
		}
		sum += h
	}
	return sum ^ uint64(len(rows))*0x9e3779b97f4a7c15
}

// sameMultiset reports whether two row multisets agree, floats within
// a relative error of 1e-9; the error names the first difference.
func sameMultiset(got, want []store.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, oracle %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Errorf("row %d column %d: %v, oracle %v", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows []store.Row) []store.Row {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]store.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

func sameValue(a, b store.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.K == store.KindFloat || b.K == store.KindFloat {
		return closeEnough(a.AsFloat(), b.AsFloat())
	}
	return store.Equal(a, b)
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// seen is what one worker observed for one distinct statement.
type seen struct {
	class string
	cols  []string
	first []store.Row // rows of the first result
	fp    uint64      // fingerprint of the first result
	ops   int64       // completed ops that ran the statement
	drift int64       // later results whose fingerprint differed
}

// observations maps statement text to what was seen.
type observations map[string]*seen

// record notes one completed result. Only the first result's rows
// are retained; later ones are compared by fingerprint, which is
// valid only while the database does not change (checkRepeats).
func (o observations) record(class, src string, res *query.Result, checkRepeats bool) {
	s := o[src]
	if s == nil {
		o[src] = &seen{class: class, cols: res.Columns, first: res.Rows, fp: fingerprint(res.Rows), ops: 1}
		return
	}
	s.ops++
	if checkRepeats && fingerprint(res.Rows) != s.fp {
		s.drift++
	}
}

// merge folds another worker's observations in; a statement both saw
// must have the same first answer when repeats are checked.
func (o observations) merge(other observations, checkRepeats bool) {
	for src, s := range other {
		mine := o[src]
		if mine == nil {
			o[src] = s
			continue
		}
		mine.ops += s.ops
		mine.drift += s.drift
		if checkRepeats && mine.fp != s.fp {
			mine.drift += s.ops
		}
	}
}

// oracleCheck compares every distinct statement's recorded answer
// with the oracle's. It returns the number of wrong ops (every op of a
// statement whose answer was wrong, plus every repeat that drifted)
// and the first difference found.
func oracleCheck(ctx context.Context, obs observations, oracle *query.Engine, tree *phylo.Tree) (wrong int64, distinct int, firstErr error) {
	sub, err := newSubtreeOracle(ctx, oracle, tree)
	if err != nil {
		return 0, 0, err
	}
	srcs := make([]string, 0, len(obs))
	for src := range obs {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		s := obs[src]
		wrong += s.drift
		var want []store.Row
		if node, ok := strings.CutPrefix(src, subtreePrefix); ok {
			want, err = sub.answer(strings.TrimSuffix(node, "')"))
		} else {
			var res *query.Result
			if res, err = oracle.Query(ctx, src); err == nil {
				want = res.Rows
			}
		}
		if err != nil {
			return wrong, len(srcs), fmt.Errorf("oracle on %q: %w", src, err)
		}
		if err := sameMultiset(s.first, want); err != nil {
			wrong += s.ops - s.drift
			if firstErr == nil {
				firstErr = fmt.Errorf("%s statement %q: %v", s.class, src, err)
			}
		}
	}
	if firstErr == nil && wrong > 0 {
		firstErr = fmt.Errorf("%d repeated results differ from their statement's first answer", wrong)
	}
	return wrong, len(srcs), firstErr
}

// subtreeOracle answers the subtree class — COUNT(*), AVG(affinity)
// over activities WITHIN_SUBTREE(protein_id, node) — from per-protein
// aggregates the oracle engine computes in one GROUP BY, summed over
// the subtree's nodes. Running the oracle once per subtree statement
// would cost a full naive scan of activities for each of up to one
// statement per tree node.
type subtreeOracle struct {
	tree   *phylo.Tree
	byName map[string]phylo.NodeID
	per    map[string]partial
}

type partial struct {
	rows, n int64
	sum     float64
}

func newSubtreeOracle(ctx context.Context, oracle *query.Engine, tree *phylo.Tree) (*subtreeOracle, error) {
	res, err := oracle.Query(ctx, "SELECT protein_id, COUNT(*), COUNT(affinity), SUM(affinity) FROM activities GROUP BY protein_id")
	if err != nil {
		return nil, err
	}
	o := &subtreeOracle{tree: tree, byName: map[string]phylo.NodeID{}, per: map[string]partial{}}
	for _, r := range res.Rows {
		p := partial{rows: r[1].I, n: r[2].I}
		if !r[3].IsNull() {
			p.sum = r[3].AsFloat()
		}
		o.per[r[0].S] = p
	}
	for i := 0; i < tree.Len(); i++ {
		o.byName[tree.Node(phylo.NodeID(i)).Name] = phylo.NodeID(i)
	}
	return o, nil
}

func (o *subtreeOracle) answer(node string) ([]store.Row, error) {
	id, ok := o.byName[node]
	if !ok {
		return nil, fmt.Errorf("no tree node %q", node)
	}
	lo, hi := o.tree.SubtreeInterval(id)
	var total partial
	for p := lo; p <= hi; p++ {
		q := o.per[o.tree.Node(o.tree.NodeAtPre(p)).Name]
		total.rows += q.rows
		total.n += q.n
		total.sum += q.sum
	}
	avg := store.NullValue()
	if total.n > 0 {
		avg = store.FloatValue(total.sum / float64(total.n))
	}
	return []store.Row{{store.IntValue(total.rows), avg}}, nil
}
