package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Spans are recorded around the calls the benchmark itself makes into
// each layer's public functions; nothing inside the program is
// instrumented. A span is one call: its name (layer.function), its
// start and end, the span that caused it, and the id of the operation
// it belongs to. Every worker goroutine owns one tracer, so recording
// takes no lock; the spans stay in memory and are written out once,
// when the run ends.

type span struct {
	op     int64 // operation id shared by every span of one operation
	parent int32 // index of the causing span in the same tracer, -1 for a root
	name   string
	start  int64 // ns since the run's time base
	end    int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer records one worker's spans. A nil tracer records nothing, so
// untraced code paths pay one nil check per call site.
type tracer struct {
	base  time.Time
	ops   *atomic.Int64
	spans []span
}

func newTracer(base time.Time, ops *atomic.Int64) *tracer {
	return &tracer{base: base, ops: ops}
}

// newOp allocates an operation id (0 when not tracing).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its handle (-1 when not tracing).
func (t *tracer) begin(op int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

// end closes the span and returns its duration.
func (t *tracer) end(h int32) time.Duration {
	if t == nil || h < 0 {
		return 0
	}
	t.spans[h].end = int64(time.Since(t.base))
	return t.spans[h].dur()
}

// spanSet is the merged view of every worker's spans.
type spanSet struct {
	tracers []*tracer
}

// spansOf merges the given tracers, skipping nil ones.
func spansOf(ts ...*tracer) spanSet {
	var s spanSet
	for _, t := range ts {
		if t != nil {
			s.tracers = append(s.tracers, t)
		}
	}
	return s
}

// durations returns the durations of every span with the given name.
func (s spanSet) durations(name string) samples {
	var out samples
	for _, t := range s.tracers {
		for _, sp := range t.spans {
			if sp.name == name {
				out = append(out, sp.dur())
			}
		}
	}
	return out
}

func (s spanSet) count() int {
	n := 0
	for _, t := range s.tracers {
		n += len(t.spans)
	}
	return n
}

// selfTime sums, per layer (the span name up to its first dot), each
// span's duration minus the part its child spans cover, over the
// spans whose root is named root. It also returns the number of such
// root spans (operations).
func (s spanSet) selfTime(root string) (map[string]time.Duration, int) {
	self := map[string]time.Duration{}
	ops := 0
	for _, t := range s.tracers {
		child := make([]time.Duration, len(t.spans))
		for _, sp := range t.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.dur()
			}
		}
		// under[i] is true when span i descends from a root named root;
		// a parent always precedes its children.
		under := make([]bool, len(t.spans))
		for i, sp := range t.spans {
			if sp.parent < 0 {
				under[i] = sp.name == root
				if under[i] {
					ops++
				}
			} else {
				under[i] = under[sp.parent]
			}
			if under[i] {
				self[layerOf(sp.name)] += sp.dur() - child[i]
			}
		}
	}
	return self, ops
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// write stores every span as one tab-separated line: worker, op,
// span index, parent index, name, start ns, end ns.
func (s spanSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\top\tspan\tparent\tname\tstart_ns\tend_ns")
	for wi, t := range s.tracers {
		for i, sp := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", wi, sp.op, i, sp.parent, sp.name, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// names lists the distinct span names, sorted (for the run record).
func (s spanSet) names() []string {
	seen := map[string]bool{}
	for _, t := range s.tracers {
		for _, sp := range t.spans {
			seen[sp.name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
