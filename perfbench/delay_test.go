package main

import (
	"io"
	"net"
	"testing"
	"time"
)

// echoServer echoes every byte back until the peer closes.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
	}
}

func exchange(t *testing.T, c net.Conn, pipelined bool) time.Duration {
	t.Helper()
	req := []byte("x")
	reply := make([]byte, 1)
	start := time.Now()
	if pipelined {
		for i := 0; i < 2; i++ {
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := io.ReadFull(c, reply); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, reply); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestDelayLinePipelinedVsStopAndWait checks that the delay is charged
// per message and does not block the sender: two pipelined requests
// cost about one round trip, two stop-and-wait requests about two.
func TestDelayLinePipelinedVsStopAndWait(t *testing.T) {
	const oneWay = 40 * time.Millisecond
	const rtt = 2 * oneWay
	for _, pipelined := range []bool{true, false} {
		addr, stop := echoServer(t)
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		d := newDelayConn(raw, oneWay)
		took := exchange(t, d, pipelined)
		d.Close()
		d.wait()
		stop()
		want := 2 * rtt
		if pipelined {
			want = rtt
		}
		if took < want || took > want+rtt/2 {
			t.Errorf("pipelined=%v: two requests took %v, want about %v", pipelined, took, want)
		}
	}
}

// TestDelayLineCloseDeliversQueuedBytes checks that Close returns at
// once and that bytes written before it still arrive.
func TestDelayLineCloseDeliversQueuedBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	d := newDelayConn(raw, 50*time.Millisecond)
	if _, err := d.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d.Close()
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("Close blocked for %v", took)
	}
	d.wait()
	if b := <-got; string(b) != "bye" {
		t.Errorf("peer read %q, want %q", b, "bye")
	}
}
