package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cdstore/internal/chunker"
	"cdstore/internal/client"
	"cdstore/internal/gateway"
	"cdstore/internal/server"
)

// retireTimeout bounds how long an operation waits for the serving side
// of its connections to close before it counts as failed.
const retireTimeout = 60 * time.Second

type opKind int

const (
	backupOp opKind = iota
	restoreOp
)

func (k opKind) String() string {
	if k == backupOp {
		return "backup"
	}
	return "restore"
}

// opResult is one backup or restore. It ends when the client call and
// Client.Close have returned and the serving side of every one of its
// connections has closed.
type opResult struct {
	dur      time.Duration
	err      error
	mismatch bool
	backup   *client.BackupStats
	restore  *client.RestoreStats
}

type round struct {
	spec *workloadSpec
	in   *inputs
	cl   *cluster
	rec  *recorder
}

func (rd *round) run(kind opKind, f *fileSpec) (res opResult) {
	rec := rd.rec
	var op *opTrace
	var setupID, callID, closeID uint64
	var s0 int64
	opts := client.Options{N: nClouds, K: kClouds, UserID: f.user}
	if rec != nil {
		op = &opTrace{rec: rec, id: rec.id()}
		setupID, callID, closeID, op.retire = rec.id(), rec.id(), rec.id(), rec.id()
		sch, err := newTimedScheme(op)
		if err != nil {
			return opResult{err: err}
		}
		opts.Scheme = sch
		rd.cl.users.Store(f.user, op)
		defer rd.cl.users.Delete(f.user)
		op.cur.Store(setupID)
		s0 = rec.now()
	}
	var tracks []*connTrack
	t0 := time.Now()
	c, err := client.Connect(opts, rd.cl.dialers(op, &tracks))
	var s1, s2, s3 int64
	if rec != nil {
		s1 = rec.now()
		op.cur.Store(callID)
	}
	if err == nil {
		res.err = rd.call(kind, c, f, op, &res)
		if rec != nil {
			s2 = rec.now()
			op.cur.Store(closeID)
		}
		if cerr := c.Close(); cerr != nil && res.err == nil {
			res.err = fmt.Errorf("close: %w", cerr)
		}
		if rec != nil {
			s3 = rec.now()
			op.cur.Store(op.retire)
		}
	} else {
		res.err = fmt.Errorf("connect: %w", err)
		s2, s3 = s1, s1
	}
	timeout := time.NewTimer(retireTimeout)
	defer timeout.Stop()
	for _, t := range tracks {
		select {
		case <-t.done:
		case <-timeout.C:
			if res.err == nil {
				res.err = errors.New("serving side did not close the connection")
			}
		}
	}
	res.dur = time.Since(t0)
	rd.cl.forget(tracks)
	if rec != nil {
		s4 := rec.now()
		name := "op." + kind.String()
		rec.add(span{ID: op.id, Op: op.id, Name: name, Cloud: -1, Start: s0, End: s4, Bytes: f.size})
		rec.add(span{ID: setupID, Parent: op.id, Op: op.id, Name: "session.setup", Cloud: -1, Start: s0, End: s1})
		rec.add(span{ID: callID, Parent: op.id, Op: op.id, Name: "client." + kind.String(), Cloud: -1, Start: s1, End: s2})
		rec.add(span{ID: closeID, Parent: op.id, Op: op.id, Name: "session.close", Cloud: -1, Start: s2, End: s3})
		rec.add(span{ID: op.retire, Parent: op.id, Op: op.id, Name: "session.retire", Cloud: -1, Start: s3, End: s4})
	}
	return res
}

// call runs the client call of one operation.
func (rd *round) call(kind opKind, c *client.Client, f *fileSpec, op *opTrace, res *opResult) error {
	var err error
	if kind == backupOp {
		switch {
		case f.data == nil:
			res.backup, err = c.BackupStream(f.path, &traceChunks{chunks: f.chunks, content: rd.in.content})
		case op != nil:
			// The chunker Backup builds by default, behind a timer.
			res.backup, err = c.BackupStream(f.path, &timedChunks{ck: chunker.NewRabin(bytes.NewReader(f.data)), op: op})
		default:
			res.backup, err = c.Backup(f.path, bytes.NewReader(f.data))
		}
		return err
	}
	sink := &restoreSink{h: sha256.New(), op: op}
	if op != nil {
		sink.last = op.rec.now()
	}
	res.restore, err = c.Restore(f.path, sink)
	if err != nil {
		return err
	}
	var got [sha256.Size]byte
	copy(got[:], sink.h.Sum(nil))
	if got != f.digest {
		res.mismatch = true
		return fmt.Errorf("restore %s: sha256 mismatch", f.path)
	}
	return nil
}

// phaseStats is what one phase (every backup, or every restore, of a
// round) measured.
type phaseStats struct {
	wall    time.Duration
	bytes   int64 // logical bytes of the operations that succeeded
	secrets int64
	cpu     time.Duration
	mallocs uint64
	lat     []time.Duration
	ops     int
	failed  int
	errs    []string
	// mismatches counts restores whose bytes did not hash to the
	// generator's digest.
	mismatches int

	sharesSent, sharesSkipped, transferred   int64
	downloaded, cacheHit, retries, failovers int64
}

// phase runs one operation per file, inflight at a time, in file order;
// a file whose after-file is still running waits for it.
func (rd *round) phase(kind opKind, files []fileSpec) *phaseStats {
	n := len(files)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	results := make([]opResult, n)
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rd.spec.inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if a := files[i].after; a >= 0 {
					<-done[a]
				}
				results[i] = rd.run(kind, &files[i])
				close(done[i])
			}
		}()
	}
	wg.Wait()
	ps := &phaseStats{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	ps.mallocs = ms1.Mallocs - ms0.Mallocs
	for i := range results {
		r := &results[i]
		ps.ops++
		ps.lat = append(ps.lat, r.dur)
		if r.mismatch {
			ps.mismatches++
		}
		if r.err != nil {
			ps.failed++
			ps.errs = append(ps.errs, fmt.Sprintf("%s %s: %v", kind, files[i].path, r.err))
			continue
		}
		ps.bytes += files[i].size
		if b := r.backup; b != nil {
			ps.secrets += b.Secrets
			ps.sharesSent += b.SharesSent
			ps.sharesSkipped += b.SharesSkipped
			ps.transferred += b.TransferredShareBytes
		}
		if s := r.restore; s != nil {
			ps.secrets += s.Secrets
			ps.downloaded += s.DownloadedBytes
			ps.cacheHit += s.CacheHitBytes
			ps.retries += s.SubsetRetries
			ps.failovers += s.Failovers
		}
	}
	return ps
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // kilobytes on Linux
}

// roundResult is one round: set up a fresh cluster, back up every file,
// restore every file, tear down.
type roundResult struct {
	setup   time.Duration
	backup  *phaseStats
	restore *phaseStats

	srv            server.Stats
	gw             gateway.Stats
	tally          *wireTally
	containerBytes int64
	indexBytes     int64
	indexFiles     int
	crossErrs      []string

	// Traced rounds only: the recorder's counts and spans, and the GC
	// work during the phases.
	rec      *recorder
	spans    []span
	gcCycles uint32
	gcPause  time.Duration
}

// runRound runs one round on inputs in, which took gen to generate; the
// round's set-up time is gen plus the cluster start.
func runRound(spec *workloadSpec, in *inputs, gen time.Duration, dir string, traced bool) (*roundResult, error) {
	t0 := time.Now()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	cl, err := startCluster(dir, spec, rec)
	if err != nil {
		removeAll(dir)
		return nil, fmt.Errorf("starting cluster: %w", err)
	}
	rr := &roundResult{setup: gen + time.Since(t0), tally: cl.tally, rec: rec}

	var ms0, ms1 runtime.MemStats
	var stopSampler func()
	if traced {
		runtime.ReadMemStats(&ms0)
		stopSampler = sampleProcess(rec)
	}
	rd := &round{spec: spec, in: in, cl: cl, rec: rec}
	rr.backup = rd.phase(backupOp, in.files)
	rr.restore = rd.phase(restoreOp, in.files)
	rr.srv = cl.serverStats()
	rr.gw = cl.gatewayStats()
	if traced {
		stopSampler()
		runtime.ReadMemStats(&ms1)
		rr.spans = rec.stop()
		rr.gcCycles = ms1.NumGC - ms0.NumGC
		rr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		resolveParents(rr.spans)
		computeSelf(rr.spans)
	}
	rr.crossErrs = crossCheck(rr, len(cl.gateways) > 0)
	cerr := cl.close()
	rr.containerBytes, _ = cl.diskUsage("containers")
	rr.indexBytes, rr.indexFiles = cl.diskUsage("index")
	removeAll(dir)
	if cerr != nil {
		return rr, fmt.Errorf("closing cluster: %w", cerr)
	}
	return rr, nil
}

// crossCheck compares what the benchmark counted on the wire with the
// program's own counters. The share counts hold only when every backup
// reported its stats.
func crossCheck(rr *roundResult, gw bool) []string {
	var errs []string
	check := func(what string, outside, inside int64) {
		if outside != inside {
			errs = append(errs, fmt.Sprintf("%s: wire %d, program %d", what, outside, inside))
		}
	}
	t := rr.tally
	check("put share bytes vs Server.Stats().BytesReceived", t.putBytes.Load(), int64(rr.srv.BytesReceived))
	if rr.backup.failed == 0 {
		check("put shares vs BackupStats.SharesSent", t.putShares.Load(), rr.backup.sharesSent)
	}
	check("shares in get replies vs Server.Stats().SharesServed", t.servedShares.Load(), int64(rr.srv.SharesServed))
	if gw {
		check("gateway connections vs Gateway.Stats().Sessions", t.gwSessions.Load(), int64(rr.gw.Sessions))
	}
	return errs
}

// sampleProcess records the peak heap and goroutine count until the
// returned stop function is called; stop waits for the sampler to exit.
func sampleProcess(rec *recorder) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > rec.heapPeak.Load() {
				rec.heapPeak.Store(v.Uint64())
			}
			maxInt64(&rec.goroutines, int64(runtime.NumGoroutine()))
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}
