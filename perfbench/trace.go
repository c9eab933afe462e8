package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around that layer's public functions.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Cloud  int    `json:"cloud"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Self   int64  `json:"self_ns"`
	// link is 1 + the index of the request this span carries on its
	// (op, cloud) session; it pairs client, gateway and server spans of
	// one exchange. 0 means none.
	link int
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of one traced round in memory. A nil
// recorder records nothing: that is the untraced mode.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	closed bool

	// Counts that are not spans.
	degraded   atomic.Int64 // core.combine calls holding a share index >= k
	writeWait  atomic.Int64 // ns the restore writer sat idle
	inflight   atomic.Int64 // most requests outstanding on one connection
	heapPeak   atomic.Uint64
	goroutines atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) id() uint64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if !r.closed {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// stop ends recording; spans of teardown work are not part of the run.
func (r *recorder) stop() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return r.spans
}

func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// opTrace is the trace context of one backup or restore operation. Its
// ID is also the ID of the operation's root span.
type opTrace struct {
	rec *recorder
	id  uint64
	// cur is the client-side phase span (session setup, the client call,
	// close or retire) that spans started now belong to.
	cur atomic.Uint64
	// retire is the span from Client.Close's return to the last
	// server-side close.
	retire uint64
}

// opID is the operation's id; 0 for an unknown operation.
func (o *opTrace) opID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

// ids returns the retire span (where a server's Bye work belongs) and
// the operation id.
func (o *opTrace) ids() (retire, op uint64) {
	if o == nil {
		return 0, 0
	}
	return o.retire, o.id
}

func (o *opTrace) add(name string, cloud int, start, end, bytes int64) {
	o.rec.add(span{ID: o.rec.id(), Parent: o.cur.Load(), Op: o.id, Name: name, Cloud: cloud, Start: start, End: end, Bytes: bytes})
}

// linkKey names the idx-th request of operation op on one cloud.
type linkKey struct {
	op    uint64
	cloud int
	link  int
}

// resolveParents parents every server span to the gateway relay span of
// the same request when there is one, else to the client RPC span, and
// every gateway relay span to the client RPC span.
func resolveParents(spans []span) {
	rpc := map[linkKey]uint64{}
	gw := map[linkKey]uint64{}
	for i := range spans {
		s := &spans[i]
		if s.link == 0 {
			continue
		}
		k := linkKey{s.Op, s.Cloud, s.link}
		switch layerOf(s.Name) {
		case "protocol":
			rpc[k] = s.ID
		case "gateway":
			gw[k] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.link == 0 {
			continue
		}
		k := linkKey{s.Op, s.Cloud, s.link}
		switch layerOf(s.Name) {
		case "server":
			if id, ok := gw[k]; ok {
				s.Parent = id
			} else {
				s.Parent = rpc[k]
			}
		case "gateway":
			s.Parent = rpc[k]
		}
	}
}

// layerOf maps a span name to the module it times.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op."):
		return "op"
	case strings.HasPrefix(name, "session."):
		return "session"
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "chunker."):
		return "chunker"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "rpc."):
		return "protocol"
	case strings.HasPrefix(name, "gw."):
		return "gateway"
	case strings.HasPrefix(name, "server."):
		return "server"
	case strings.HasPrefix(name, "storage."):
		return "storage"
	case name == "restore.write":
		return "restore_write"
	}
	return "other"
}

// computeSelf sets each span's self time. Within one operation every
// instant of the root span is split equally among the innermost spans
// running at that instant (spans with no running child), after each
// span is clipped to its parent's interval. The self times of an
// operation's spans therefore add up to the root span's duration, also
// where children run concurrently. Spans whose operation has no root
// span, or whose parent is not in the operation, hang off the root.
func computeSelf(spans []span) {
	byOp := map[uint64][]int{}
	for i := range spans {
		spans[i].Self = 0
		if spans[i].Op != 0 {
			byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
		}
	}
	for op, idx := range byOp {
		selfTimes(spans, op, idx)
	}
}

func selfTimes(spans []span, op uint64, idx []int) {
	pos := map[uint64]int{}
	for _, i := range idx {
		pos[spans[i].ID] = i
	}
	root, ok := pos[op]
	if !ok {
		return
	}
	parent := map[int]int{}
	for _, i := range idx {
		if i == root {
			continue
		}
		p, ok := pos[spans[i].Parent]
		if !ok || p == i {
			p = root
		}
		parent[i] = p
	}
	// Clip spans to their parents, parents first.
	lo := map[int]int64{root: spans[root].Start}
	hi := map[int]int64{root: spans[root].End}
	var clip func(i int) (int64, int64)
	clip = func(i int) (int64, int64) {
		if l, ok := lo[i]; ok {
			return l, hi[i]
		}
		pl, ph := clip(parent[i])
		l, h := spans[i].Start, spans[i].End
		if l < pl {
			l = pl
		}
		if h > ph {
			h = ph
		}
		if h < l {
			h = l
		}
		lo[i], hi[i] = l, h
		return l, h
	}
	type event struct {
		t     int64
		open  bool
		index int
	}
	var evs []event
	for _, i := range idx {
		l, h := clip(i)
		if h > l {
			evs = append(evs, event{l, true, i}, event{h, false, i})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].open && evs[b].open
	})
	active := map[int]bool{}
	kids := map[int]int{}
	self := map[int]float64{}
	var last int64
	for _, e := range evs {
		if dt := e.t - last; dt > 0 && len(active) > 0 {
			var inner []int
			for i := range active {
				if kids[i] == 0 {
					inner = append(inner, i)
				}
			}
			share := float64(dt) / float64(len(inner))
			for _, i := range inner {
				self[i] += share
			}
		}
		last = e.t
		if e.open {
			active[e.index] = true
			if e.index != root {
				kids[parent[e.index]]++
			}
		} else {
			delete(active, e.index)
			if e.index != root {
				kids[parent[e.index]]--
			}
		}
	}
	for i, v := range self {
		spans[i].Self = int64(v + 0.5)
	}
}

// writeSpans writes one JSON line of run facts, then one line per span.
func writeSpans(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
