package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"cdstore/internal/protocol"
)

// headBytes is how much of each payload the frame parser keeps: enough
// for a mux header (stream:4, type:1) followed by a Hello's user id or
// a batch's share count.
const headBytes = 16

// frame is one parsed protocol frame: [type:1][len:4][payload:len].
type frame struct {
	typ  byte
	plen int
	head []byte // the first headBytes bytes of the payload, or fewer
}

// count returns the payload's leading big-endian uint32, which is the
// share count of a MsgPutShares or MsgShares payload.
func (f frame) count() int64 {
	if len(f.head) < 4 {
		return 0
	}
	return int64(binary.BigEndian.Uint32(f.head))
}

// mux splits a MsgMuxData payload head into stream id and inner type.
func (f frame) mux() (stream uint32, typ byte, ok bool) {
	if f.typ != protocol.MsgMuxData || len(f.head) < protocol.MuxHeaderSize {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(f.head), f.head[4], true
}

// frameParser follows the framing across arbitrary read or write
// boundaries.
type frameParser struct {
	hdr  [5]byte
	hn   int
	left int
	plen int
	head [headBytes]byte
	hlen int
}

// feed consumes b. It calls start (if not nil) with a frame's type at
// the frame's first byte, and done (if not nil) once the frame's last
// byte has been consumed.
func (p *frameParser) feed(b []byte, start func(byte), done func(frame)) {
	for len(b) > 0 {
		if p.hn < 5 {
			if p.hn == 0 && start != nil {
				start(b[0])
			}
			c := copy(p.hdr[p.hn:], b)
			p.hn += c
			b = b[c:]
			if p.hn < 5 {
				return
			}
			p.plen = int(binary.BigEndian.Uint32(p.hdr[1:]))
			p.left, p.hlen = p.plen, 0
			if p.left == 0 {
				p.finish(done)
			}
			continue
		}
		c := len(b)
		if c > p.left {
			c = p.left
		}
		if p.hlen < headBytes {
			p.hlen += copy(p.head[p.hlen:], b[:c])
		}
		p.left -= c
		b = b[c:]
		if p.left == 0 {
			p.finish(done)
		}
	}
}

func (p *frameParser) finish(done func(frame)) {
	p.hn = 0
	if done != nil {
		done(frame{typ: p.hdr[0], plen: p.plen, head: p.head[:p.hlen]})
	}
}

// rpcName names a request type the way the metrics do.
func rpcName(typ byte) string {
	switch typ {
	case protocol.MsgHello:
		return "hello"
	case protocol.MsgQuery:
		return "query"
	case protocol.MsgPutShares:
		return "put"
	case protocol.MsgPutRecipe:
		return "recipe_put"
	case protocol.MsgGetRecipe:
		return "recipe_get"
	case protocol.MsgGetShares:
		return "get"
	}
	return "other"
}

// wireTally is what the client-side connection wrappers count on every
// run, traced or not; each count is cross-checked against the program's
// own counter at the end of a round.
type wireTally struct {
	putShares    atomic.Int64 // shares in MsgPutShares batches
	putBytes     atomic.Int64 // share payload bytes in those batches
	servedShares atomic.Int64 // shares in MsgShares replies
	upBytes      atomic.Int64 // every byte the clients sent
	downBytes    atomic.Int64 // every byte the clients received
	gwSessions   atomic.Int64 // connections dialed to a gateway
}

// clientConn wraps the connection a client Dialer returns. It counts
// frames into the tally, and when the operation is traced records one
// span per request/reply exchange, from the request's first byte
// written to the reply's last byte read.
type clientConn struct {
	net.Conn
	tally *wireTally
	op    *opTrace
	cloud int

	mu       sync.Mutex
	w, r     frameParser
	now      int64
	reqStart int64
	pending  []pendingReq
	reqs     int

	onReqStart     func(byte)
	onReq, onReply func(frame)
}

type pendingReq struct {
	typ    byte
	start  int64
	parent uint64
	link   int
	bytes  int64
}

func newClientConn(c net.Conn, tally *wireTally, op *opTrace, cloud int) *clientConn {
	cc := &clientConn{Conn: c, tally: tally, op: op, cloud: cloud}
	cc.onReqStart, cc.onReq, cc.onReply = cc.requestStart, cc.request, cc.reply
	return cc
}

// Write parses before writing, so a reply can never be read before its
// request was recorded.
func (c *clientConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.op != nil {
		c.now = c.op.rec.now()
	}
	c.w.feed(b, c.onReqStart, c.onReq)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		if c.op != nil {
			c.now = c.op.rec.now()
		}
		c.r.feed(b[:n], nil, c.onReply)
		c.mu.Unlock()
	}
	return n, err
}

func (c *clientConn) requestStart(byte) { c.reqStart = c.now }

// request runs when a request frame has been fully handed to the
// connection; the exchange started at the Write carrying its first byte.
func (c *clientConn) request(f frame) {
	c.tally.upBytes.Add(int64(5 + f.plen))
	if f.typ == protocol.MsgPutShares {
		n := f.count()
		c.tally.putShares.Add(n)
		c.tally.putBytes.Add(int64(f.plen) - 4 - 16*n)
	}
	if c.op == nil || f.typ == protocol.MsgBye {
		return
	}
	c.reqs++
	c.pending = append(c.pending, pendingReq{typ: f.typ, start: c.reqStart, parent: c.op.cur.Load(), link: c.reqs, bytes: int64(5 + f.plen)})
	maxInt64(&c.op.rec.inflight, int64(len(c.pending)))
}

func (c *clientConn) reply(f frame) {
	c.tally.downBytes.Add(int64(5 + f.plen))
	if f.typ == protocol.MsgShares {
		c.tally.servedShares.Add(f.count())
	}
	if c.op == nil || len(c.pending) == 0 {
		return
	}
	q := c.pending[0]
	c.pending = c.pending[1:]
	c.op.rec.add(span{ID: c.op.rec.id(), Parent: q.parent, Op: c.op.id, Name: "rpc." + rpcName(q.typ),
		Cloud: c.cloud, Start: q.start, End: c.now, Bytes: q.bytes + int64(5+f.plen), link: q.link})
}

// serverTrace is one cloud's server-side trace state: the requests in
// service now, so a storage call can be parented to the request that
// caused it.
type serverTrace struct {
	rec   *recorder
	cloud int

	mu     sync.Mutex
	active []activeReq
}

type activeReq struct {
	id uint64
	op *opTrace
}

func (t *serverTrace) push(id uint64, op *opTrace) {
	t.mu.Lock()
	t.active = append(t.active, activeReq{id, op})
	t.mu.Unlock()
}

func (t *serverTrace) pop(id uint64) {
	t.mu.Lock()
	for i := range t.active {
		if t.active[i].id == id {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// top returns the request that started service last, if any.
func (t *serverTrace) top() activeReq {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) == 0 {
		return activeReq{}
	}
	return t.active[len(t.active)-1]
}

// serverConn wraps a connection accepted by a server or gateway
// listener. Its Close tells the cluster that the serving side of the
// connection has finished, which is where an operation ends. When the
// round is traced and the listener is a server's, it also records each
// request's service time: from the request's last byte read to the
// reply's first byte written.
type serverConn struct {
	net.Conn
	cl        *cluster
	tr        *serverTrace // nil: close tracking only
	closeOnce sync.Once

	mu      sync.Mutex
	r, w    frameParser
	now     int64
	op      *opTrace // direct connections: the operation on the other end
	opKnown bool
	reqs    int
	streams map[uint32]*streamTrace
	pending []pendingSvc
	byeID   uint64
	byeOp   *opTrace
	byeAt   int64

	onReq        func(frame)
	onReplyStart func(byte)
}

type pendingSvc struct {
	id    uint64
	op    uint64
	name  string
	start int64
	link  int
}

// streamTrace follows one mux stream: the operation it belongs to
// (learned from its Hello's user id) and its request count.
type streamTrace struct {
	op      *opTrace
	reqs    int
	pending []pendingReq // gateway upstream side only
}

func newServerConn(c net.Conn, cl *cluster, tr *serverTrace) *serverConn {
	sc := &serverConn{Conn: c, cl: cl, tr: tr}
	sc.onReq, sc.onReplyStart = sc.request, sc.replyStart
	return sc
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.tr != nil && n > 0 {
		c.mu.Lock()
		c.now = c.tr.rec.now()
		c.r.feed(b[:n], nil, c.onReq)
		c.mu.Unlock()
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	if c.tr != nil {
		c.mu.Lock()
		c.now = c.tr.rec.now()
		c.w.feed(b, c.onReplyStart, nil)
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() {
		if c.tr != nil {
			c.mu.Lock()
			if c.byeID != 0 {
				parent, op := c.byeOp.ids()
				c.tr.rec.add(span{ID: c.byeID, Parent: parent, Op: op, Name: "server.bye",
					Cloud: c.tr.cloud, Start: c.byeAt, End: c.tr.rec.now()})
				c.tr.pop(c.byeID)
			}
			c.mu.Unlock()
		}
		c.cl.closed(c.RemoteAddr().String())
	})
	return err
}

func (c *serverConn) request(f frame) {
	var op *opTrace
	var link int
	typ := f.typ
	if stream, ityp, ok := f.mux(); ok {
		if ityp == protocol.MsgBye {
			delete(c.streams, stream)
			return
		}
		if c.streams == nil {
			c.streams = map[uint32]*streamTrace{}
		}
		st := c.streams[stream]
		if st == nil {
			st = &streamTrace{}
			c.streams[stream] = st
		}
		if ityp == protocol.MsgHello && len(f.head) >= protocol.MuxHeaderSize+8 {
			st.op = c.cl.opOfUser(binary.BigEndian.Uint64(f.head[protocol.MuxHeaderSize:]))
		}
		st.reqs++
		op, link, typ = st.op, st.reqs, ityp
	} else {
		if !c.opKnown {
			c.op, c.opKnown = c.cl.opOfConn(c.RemoteAddr().String()), true
		}
		if typ == protocol.MsgBye {
			// A connection Bye makes the server flush; that work runs
			// until the server closes the connection.
			c.byeID, c.byeOp, c.byeAt = c.tr.rec.id(), c.op, c.now
			c.tr.push(c.byeID, c.op)
			return
		}
		c.reqs++
		op, link = c.op, c.reqs
	}
	id := c.tr.rec.id()
	c.pending = append(c.pending, pendingSvc{id: id, op: op.opID(), name: "server." + rpcName(typ), start: c.now, link: link})
	c.tr.push(id, op)
}

// replyStart pairs the first byte of a reply with the oldest request in
// service: the server answers every request but Bye, in order, on both
// plain and mux connections.
func (c *serverConn) replyStart(byte) {
	if len(c.pending) == 0 {
		return
	}
	q := c.pending[0]
	c.pending = c.pending[1:]
	c.tr.rec.add(span{ID: q.id, Op: q.op, Name: q.name, Cloud: c.tr.cloud, Start: q.start, End: c.now, link: q.link})
	c.tr.pop(q.id)
}

// gwUpstreamConn wraps a gateway's upstream connection (its Config.Dial)
// in traced rounds and records, per mux stream, the time from a
// request's first byte written to its reply's last byte read. The
// client RPC span minus this span is the gateway hop.
type gwUpstreamConn struct {
	net.Conn
	cl    *cluster
	rec   *recorder
	cloud int

	mu       sync.Mutex
	w, r     frameParser
	now      int64
	reqStart int64
	streams  map[uint32]*streamTrace

	onReqStart     func(byte)
	onReq, onReply func(frame)
}

func newGWUpstreamConn(c net.Conn, cl *cluster, rec *recorder, cloud int) *gwUpstreamConn {
	g := &gwUpstreamConn{Conn: c, cl: cl, rec: rec, cloud: cloud, streams: map[uint32]*streamTrace{}}
	g.onReqStart = func(byte) { g.reqStart = g.now }
	g.onReq, g.onReply = g.request, g.reply
	return g
}

func (g *gwUpstreamConn) Write(b []byte) (int, error) {
	g.mu.Lock()
	g.now = g.rec.now()
	g.w.feed(b, g.onReqStart, g.onReq)
	g.mu.Unlock()
	return g.Conn.Write(b)
}

func (g *gwUpstreamConn) Read(b []byte) (int, error) {
	n, err := g.Conn.Read(b)
	if n > 0 {
		g.mu.Lock()
		g.now = g.rec.now()
		g.r.feed(b[:n], nil, g.onReply)
		g.mu.Unlock()
	}
	return n, err
}

func (g *gwUpstreamConn) request(f frame) {
	stream, ityp, ok := f.mux()
	if !ok {
		return
	}
	if ityp == protocol.MsgBye {
		delete(g.streams, stream)
		return
	}
	st := g.streams[stream]
	if st == nil {
		st = &streamTrace{}
		g.streams[stream] = st
	}
	if ityp == protocol.MsgHello && len(f.head) >= protocol.MuxHeaderSize+8 {
		st.op = g.cl.opOfUser(binary.BigEndian.Uint64(f.head[protocol.MuxHeaderSize:]))
	}
	st.reqs++
	st.pending = append(st.pending, pendingReq{typ: ityp, start: g.reqStart, link: st.reqs})
}

func (g *gwUpstreamConn) reply(f frame) {
	stream, _, ok := f.mux()
	if !ok {
		return
	}
	st := g.streams[stream]
	if st == nil || len(st.pending) == 0 {
		return
	}
	q := st.pending[0]
	st.pending = st.pending[1:]
	g.rec.add(span{ID: g.rec.id(), Op: st.op.opID(), Name: "gw." + rpcName(q.typ), Cloud: g.cloud, Start: q.start, End: g.now, link: q.link})
}
