package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kClient  spanKind = iota // the caller's request: netblock.Client or fleet.Fleet
	kServer                  // the Backend a netblock.Server calls
	kEngine                  // engine.Engine ReadAt/WriteAt
	kSrc                     // src.Cache Submit, through bench.Cache
	kSSD                     // an ssd.SSD Submit or Flush
	kPrimary                 // the primary.Storage Submit or Flush
	kNext                    // workload.Source Next inside bench.Run
)

var spanNames = [...]string{"client", "netblock.backend", "engine.call", "src.submit", "ssd.submit", "primary.submit", "workload.next"}

// span is one call at a layer boundary. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	start, end int64
	off        int64 // byte offset the call addressed, -1 when none
	req        int64 // request ID shared by all spans of one request, -1 when unknown
	parent     int32 // index of the enclosing span in the same buffer, -1 for a root
	kind       spanKind
	write      bool
}

func (s *span) dur() int64 { return s.end - s.start }

// maxSpans bounds the spans a run keeps in memory (about 48 MiB). Calls
// past it are still timed by the aggregate counters but not kept.
const maxSpans = 1 << 20

// spanBuf is one append-only span list. The served workloads keep one per
// client, so that spans of one request land in one list.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

// tracer records spans while on. It is created per traced run; untraced
// runs install no tracing decorators at all.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	kept    atomic.Int64
	dropped atomic.Int64
	bufs    []spanBuf
}

func newTracer(bufs int) *tracer {
	return &tracer{epoch: time.Now(), bufs: make([]spanBuf, bufs)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends s to buffer b and returns its index, or -1 when the
// memory bound is reached.
func (t *tracer) record(b int, s span) int32 {
	if t.kept.Add(1) > maxSpans {
		t.dropped.Add(1)
		return -1
	}
	buf := &t.bufs[b]
	buf.mu.Lock()
	buf.spans = append(buf.spans, s)
	i := int32(len(buf.spans) - 1)
	buf.mu.Unlock()
	return i
}

// spans reports how many spans were kept.
func (t *tracer) spans() int64 {
	var n int64
	for i := range t.bufs {
		n += int64(len(t.bufs[i].spans))
	}
	return n
}

// link assigns each span of buffer b that is not a root request span the
// request ID and parent of the innermost span enclosing it in time. Within
// one buffer requests never overlap (each client has one request in
// flight), so time containment is exactly the call nesting. It returns the
// number of spans no request encloses. Call it after tracing stopped.
func (t *tracer) link(b int, isRoot func(*span) bool) int64 {
	ss := t.bufs[b].spans
	order := make([]int32, len(ss))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, c := &ss[order[i]], &ss[order[j]]
		if a.start != c.start {
			return a.start < c.start
		}
		return a.end > c.end
	})
	var stack []int32
	var unpaired int64
	for _, i := range order {
		s := &ss[i]
		for len(stack) > 0 && ss[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		switch {
		case isRoot(s):
			stack = stack[:0]
		case len(stack) > 0:
			top := stack[len(stack)-1]
			s.parent = top
			s.req = ss[top].req
		default:
			unpaired++
			continue
		}
		stack = append(stack, i)
	}
	return unpaired
}

// dump writes every kept span as one tab-separated line, with parent
// indices global across buffers.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "index\treq\tparent\tname\top\tstart_ns\tend_ns\toff")
	base := 0
	for b := range t.bufs {
		for i, s := range t.bufs[b].spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base) + int64(s.parent)
			}
			op := "read"
			if s.write {
				op = "write"
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", base+i, s.req, parent, spanNames[s.kind], op, s.start, s.end, s.off)
		}
		base += len(t.bufs[b].spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
