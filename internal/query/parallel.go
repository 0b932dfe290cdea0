package query

import (
	"context"
	"sync"

	"drugtree/internal/store"
)

// Intra-query parallelism lives in the vectorized operators
// (physical_vec.go): the scan residual filter, the hash-join probe and
// partial aggregation split their materialized batches into contiguous
// chunks, one per worker, and reassemble per-chunk results in chunk
// order, so a parallel run reproduces the serial operator's output
// exactly — which is what the differential harness asserts. The row
// Volcano engine always runs serially: it is the reference the
// harness compares against.
//
// Cancellation: every worker and every serial drain loop polls its
// context through a canceller at batch (or every cancelCheckRows
// rows) granularity, so a context cancelled mid-scan or mid-join
// unwinds promptly with ctx.Err() and no goroutine outlives its
// operator — workers are always joined before the operator returns.

// morselSize is the input size unit for parallel work: partial
// aggregation stays serial below 2*morselSize live rows, where
// per-worker tables would cost more than they save.
const morselSize = 1024

// cancelCheckRows is how often tight per-row loops poll the context.
const cancelCheckRows = 256

// canceller polls a context every cancelCheckRows iterations (a
// channel select per row would dominate cheap operators).
type canceller struct {
	ctx  context.Context
	tick uint32
}

// check returns ctx.Err() once the context is done, polling every
// cancelCheckRows calls.
func (c *canceller) check() error {
	c.tick++
	if c.tick%cancelCheckRows != 0 {
		return nil
	}
	return c.now()
}

// now polls the context immediately.
func (c *canceller) now() error {
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// morselRange is one contiguous chunk of a materialized input.
type morselRange struct{ lo, hi int }

// splitChunks cuts [0, n) into at most k contiguous, near-equal
// ranges — one per worker.
func splitChunks(n, k int) []morselRange {
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	per := (n + k - 1) / k
	out := make([]morselRange, 0, k)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, morselRange{lo, hi})
	}
	return out
}

// runChunks runs fn once per chunk, one goroutine per chunk, joining
// all workers before returning. The first error wins; a context error
// inside fn should surface through fn's own canceller.
func runChunks(ctx context.Context, chunks []morselRange, fn func(w int, r morselRange) error) error {
	if len(chunks) == 0 {
		return nil
	}
	if len(chunks) == 1 {
		return fn(0, chunks[0])
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := range chunks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(w, chunks[w]); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// drainAll materializes an iterator, polling ctx between rows.
func drainAll(ctx context.Context, in iterator) ([]store.Row, error) {
	c := canceller{ctx: ctx}
	var rows []store.Row
	for {
		if err := c.check(); err != nil {
			return nil, err
		}
		r, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, r)
	}
}
