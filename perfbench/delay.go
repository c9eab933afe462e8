package main

import (
	"net"
	"sync"
	"time"
)

// delayConn is a delay line on the client end of a connection: every
// byte written reaches the peer delay after Write was called, and every
// byte the peer sends becomes readable delay after it arrived, so one
// request/reply exchange costs 2*delay. Write never waits for the
// delay, so a sender that pipelines requests pays one round trip for
// all of them while a stop-and-wait sender pays one per exchange.
// (netsim.Shape charges its latency once per connection, so it cannot
// show that difference.)
//
// Close is asynchronous like a TCP close: it returns at once, and the
// underlying connection closes after the queued bytes were delivered.
// wait returns once both pump goroutines have exited.
type delayConn struct {
	net.Conn
	delay time.Duration

	mu      sync.Mutex
	wcond   *sync.Cond
	rcond   *sync.Cond
	out     []delayed
	closing bool
	werr    error
	in      []delayed
	rerr    error

	done sync.WaitGroup
}

type delayed struct {
	due time.Time
	b   []byte
}

func newDelayConn(c net.Conn, delay time.Duration) *delayConn {
	d := &delayConn{Conn: c, delay: delay}
	d.wcond = sync.NewCond(&d.mu)
	d.rcond = sync.NewCond(&d.mu)
	d.done.Add(2)
	go d.pumpOut()
	go d.pumpIn()
	return d
}

func (d *delayConn) Write(b []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.werr != nil {
		return 0, d.werr
	}
	if d.closing {
		return 0, net.ErrClosed
	}
	d.out = append(d.out, delayed{due: time.Now().Add(d.delay), b: append([]byte(nil), b...)})
	d.wcond.Signal()
	return len(b), nil
}

func (d *delayConn) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.in) == 0 && d.rerr == nil {
		d.rcond.Wait()
	}
	if len(d.in) == 0 {
		return 0, d.rerr
	}
	// Only one reader runs at a time (callers serialize reads), so the
	// head cannot change while we sleep until it is due.
	if wait := time.Until(d.in[0].due); wait > 0 {
		d.mu.Unlock()
		time.Sleep(wait)
		d.mu.Lock()
	}
	n := copy(p, d.in[0].b)
	d.in[0].b = d.in[0].b[n:]
	if len(d.in[0].b) == 0 {
		d.in = d.in[1:]
	}
	return n, nil
}

// Close starts an orderly close and returns at once.
func (d *delayConn) Close() error {
	d.mu.Lock()
	d.closing = true
	d.wcond.Signal()
	d.mu.Unlock()
	return nil
}

// wait blocks until the queued writes were delivered, the connection
// was closed and both pumps have exited.
func (d *delayConn) wait() { d.done.Wait() }

func (d *delayConn) pumpOut() {
	defer d.done.Done()
	defer d.Conn.Close()
	for {
		d.mu.Lock()
		for len(d.out) == 0 && !d.closing {
			d.wcond.Wait()
		}
		if len(d.out) == 0 {
			d.mu.Unlock()
			return
		}
		m := d.out[0]
		d.out = d.out[1:]
		d.mu.Unlock()
		if wait := time.Until(m.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := d.Conn.Write(m.b); err != nil {
			d.mu.Lock()
			d.werr = err
			d.out = nil
			d.mu.Unlock()
			return
		}
	}
}

func (d *delayConn) pumpIn() {
	defer d.done.Done()
	for {
		buf := make([]byte, 64<<10)
		n, err := d.Conn.Read(buf)
		now := time.Now()
		d.mu.Lock()
		if n > 0 {
			d.in = append(d.in, delayed{due: now.Add(d.delay), b: buf[:n]})
		}
		if err != nil {
			d.rerr = err
		}
		d.rcond.Signal()
		d.mu.Unlock()
		if err != nil {
			return
		}
	}
}
