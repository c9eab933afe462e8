package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/gateway"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

const (
	nClouds = 4
	kClouds = 3
)

// cluster is four cdstore servers in the shape cdstore-server runs them
// (storage.LocalDir containers, an on-disk index, scrub off), each on
// its own loopback TCP listener, optionally fronted by one gateway per
// cloud.
type cluster struct {
	dir      string
	servers  []*server.Server
	gateways []*gateway.Gateway
	addrs    []string // what clients dial: gateways when present
	delays   []time.Duration
	tally    *wireTally

	serving sync.WaitGroup

	// conns maps a client connection's local address to its tracker.
	conns sync.Map // string -> *connTrack
	// users maps a user id to the traced operation running as that user,
	// which is how mux streams (which carry only a Hello) find theirs.
	users sync.Map // uint64 -> *opTrace

	mu     sync.Mutex
	delayd []*delayConn
}

// connTrack follows one client connection until the serving side has
// closed it.
type connTrack struct {
	addr string
	done chan struct{}
	once sync.Once
	op   *opTrace
}

func (cl *cluster) track(addr string, op *opTrace) *connTrack {
	t, _ := cl.conns.LoadOrStore(addr, &connTrack{addr: addr, done: make(chan struct{}), op: op})
	return t.(*connTrack)
}

func (cl *cluster) closed(addr string) {
	t := cl.track(addr, nil)
	t.once.Do(func() { close(t.done) })
}

func (cl *cluster) opOfConn(addr string) *opTrace {
	if t, ok := cl.conns.Load(addr); ok {
		return t.(*connTrack).op
	}
	return nil
}

func (cl *cluster) opOfUser(user uint64) *opTrace {
	if op, ok := cl.users.Load(user); ok {
		return op.(*opTrace)
	}
	return nil
}

// trackingListener wraps every accepted connection so its close is seen.
type trackingListener struct {
	net.Listener
	cl *cluster
	tr *serverTrace
}

func (l trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newServerConn(c, l.cl, l.tr), nil
}

// startCluster opens the servers (and gateways) under dir. rec is nil
// for an untraced round.
func startCluster(dir string, spec *workloadSpec, rec *recorder) (*cluster, error) {
	cl := &cluster{dir: dir, delays: spec.delays, tally: &wireTally{}}
	for i := 0; i < nClouds; i++ {
		cdir := filepath.Join(dir, fmt.Sprintf("cloud%d", i))
		local, err := storage.NewLocalDir(filepath.Join(cdir, "containers"))
		if err != nil {
			cl.close()
			return nil, err
		}
		var backend storage.Backend = local
		var tr *serverTrace
		if rec != nil {
			tr = &serverTrace{rec: rec, cloud: i}
			backend = &timedBackend{Backend: local, tr: tr}
		}
		srv, err := server.New(server.Config{CloudIndex: i, N: nClouds, K: kClouds,
			IndexDir: filepath.Join(cdir, "index"), Backend: backend})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			_ = srv.Serve(trackingListener{Listener: ln, cl: cl, tr: tr})
		}()
		addr := ln.Addr().String()
		if !spec.gateway {
			cl.addrs = append(cl.addrs, addr)
			continue
		}
		cloud := i
		gw, err := gateway.New(gateway.Config{Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil || rec == nil {
				return c, err
			}
			return newGWUpstreamConn(c, cl, rec, cloud), nil
		}})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.gateways = append(cl.gateways, gw)
		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			_ = gw.Serve(trackingListener{Listener: gln, cl: cl})
		}()
		cl.addrs = append(cl.addrs, gln.Addr().String())
	}
	return cl, nil
}

// dialers returns one Dialer per cloud for an operation. Every
// connection is counted, tracked until its serving side closes, and
// delayed when the workload has a delay line.
func (cl *cluster) dialers(op *opTrace, tracks *[]*connTrack) []client.Dialer {
	ds := make([]client.Dialer, nClouds)
	for i := range ds {
		cloud := i
		ds[i] = func() (net.Conn, error) {
			c, err := net.Dial("tcp", cl.addrs[cloud])
			if err != nil {
				return nil, err
			}
			t := cl.track(c.LocalAddr().String(), op)
			*tracks = append(*tracks, t)
			if cl.gateways != nil {
				cl.tally.gwSessions.Add(1)
			}
			if cl.delays != nil && cl.delays[cloud] > 0 {
				d := newDelayConn(c, cl.delays[cloud])
				cl.mu.Lock()
				cl.delayd = append(cl.delayd, d)
				cl.mu.Unlock()
				c = d
			}
			return newClientConn(c, cl.tally, op, cloud), nil
		}
	}
	return ds
}

// forget drops an operation's connection trackers once it has ended.
func (cl *cluster) forget(tracks []*connTrack) {
	for _, t := range tracks {
		cl.conns.Delete(t.addr)
	}
}

// serverStats sums the servers' counters.
func (cl *cluster) serverStats() server.Stats {
	var s server.Stats
	for _, srv := range cl.servers {
		st := srv.Stats()
		s.SharesReceived += st.SharesReceived
		s.SharesStored += st.SharesStored
		s.BytesReceived += st.BytesReceived
		s.BytesStored += st.BytesStored
		s.IntraQueries += st.IntraQueries
		s.IntraHits += st.IntraHits
		s.SharesServed += st.SharesServed
		s.BytesServed += st.BytesServed
	}
	return s
}

func (cl *cluster) gatewayStats() gateway.Stats {
	var s gateway.Stats
	for _, gw := range cl.gateways {
		st := gw.Stats()
		s.Sessions += st.Sessions
		s.UpstreamDials += st.UpstreamDials
		s.Relayed += st.Relayed
	}
	return s
}

// close stops gateways and servers (servers flush on Close), waits for
// every serving goroutine and delay line, and returns the first error.
func (cl *cluster) close() error {
	var first error
	for _, gw := range cl.gateways {
		if err := gw.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range cl.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	cl.serving.Wait()
	cl.mu.Lock()
	ds := cl.delayd
	cl.delayd = nil
	cl.mu.Unlock()
	for _, d := range ds {
		d.wait()
	}
	return first
}

// diskUsage sums file sizes and counts files under each cloud's sub.
func (cl *cluster) diskUsage(sub string) (bytes int64, files int) {
	for i := 0; i < nClouds; i++ {
		root := filepath.Join(cl.dir, fmt.Sprintf("cloud%d", i), sub)
		_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
				files++
			}
			return nil
		})
	}
	return bytes, files
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, err)
	}
}
