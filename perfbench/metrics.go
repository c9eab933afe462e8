package main

import (
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := sortDurations(d)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile by nearest rank.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := sortDurations(d)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailSamples is the number of samples that must lie beyond the tail.
const tailSamples = 10

// tail returns the highest percentile with at least tailSamples samples
// beyond it, and that percentile. With fewer than 2*tailSamples+1
// samples that rank would lie below the median, so the median stands in;
// the two agree at exactly 2*tailSamples+1 samples, so the tail does not
// jump when a run's sample count crosses that size.
func tail(d []time.Duration) (time.Duration, float64) {
	s := sortDurations(d)
	if len(s) == 0 {
		return 0, 0
	}
	if len(s) <= 2*tailSamples {
		return median(s), 50
	}
	i := len(s) - tailSamples - 1
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// medianOf returns the median of v, or 0 for none.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd aggregates untraced rounds. Set-up time, rates, CPU time and
// allocations are medians of the per-round values, so one round slowed
// by a neighbour on the machine does not move them; latencies pool every
// operation; the byte ratios are totals.
func endToEnd(rounds []*roundResult) (metricSet, map[string]any) {
	var bLat, rLat []time.Duration
	var setup, bRate, rRate, bCPU, rCPU, bAllocs, rAllocs []float64
	var bBytes, rBytes, transferred, stored, served int64
	ops, failed := 0, 0
	for _, r := range rounds {
		b, rs := r.backup, r.restore
		setup = append(setup, r.setup.Seconds())
		bLat = append(bLat, b.lat...)
		rLat = append(rLat, rs.lat...)
		bRate = append(bRate, ratio(float64(b.bytes)/1e6, b.wall.Seconds()))
		rRate = append(rRate, ratio(float64(rs.bytes)/1e6, rs.wall.Seconds()))
		bCPU = append(bCPU, ratio(b.cpu.Seconds(), float64(b.bytes)/1e9))
		rCPU = append(rCPU, ratio(rs.cpu.Seconds(), float64(rs.bytes)/1e9))
		bAllocs = append(bAllocs, ratio(float64(b.mallocs), float64(b.secrets)))
		rAllocs = append(rAllocs, ratio(float64(rs.mallocs), float64(rs.secrets)))
		bBytes += b.bytes
		rBytes += rs.bytes
		transferred += b.transferred
		stored += r.containerBytes
		served += int64(r.srv.BytesServed)
		ops += b.ops + rs.ops
		failed += b.failed + rs.failed
	}
	m := metricSet{}
	m.set("setup_s", "s", medianOf(setup))
	m.set("backup_MBps", "MB/s", medianOf(bRate))
	m.set("restore_MBps", "MB/s", medianOf(rRate))
	bTail, bPct := tail(bLat)
	rTail, rPct := tail(rLat)
	m.set("backup_file_p50_ms", "ms", ms(median(bLat)))
	m.set("backup_file_tail_ms", "ms", ms(bTail))
	m.set("restore_file_p50_ms", "ms", ms(median(rLat)))
	m.set("restore_file_tail_ms", "ms", ms(rTail))
	m.set("backup_cpu_s_per_GB", "s/GB", medianOf(bCPU))
	m.set("restore_cpu_s_per_GB", "s/GB", medianOf(rCPU))
	m.set("backup_allocs_per_secret", "count", medianOf(bAllocs))
	m.set("restore_allocs_per_secret", "count", medianOf(rAllocs))
	m.set("upload_ratio", "ratio", ratio(float64(transferred), float64(bBytes)))
	m.set("stored_ratio", "ratio", ratio(float64(stored), float64(bBytes)))
	m.set("egress_ratio", "ratio", ratio(float64(served), float64(rBytes)))
	m.set("peak_rss_MB", "MB", float64(peakRSSBytes())/1e6)
	m.set("ok_ops_ratio", "ratio", ratio(float64(ops-failed), float64(ops)))
	info := map[string]any{
		"backup_files":            len(bLat),
		"restore_files":           len(rLat),
		"backup_tail_percentile":  bPct,
		"restore_tail_percentile": rPct,
	}
	return m, info
}

var rpcKinds = []string{"hello", "query", "put", "recipe_put", "recipe_get", "get"}
var serverKinds = []string{"query", "put", "get", "recipe_put"}

var selfLayers = []string{"session", "client", "chunker", "core", "protocol", "gateway", "server", "storage", "restore_write"}

// perLayer aggregates traced rounds. Counts, volumes and busy times are
// per round; latency percentiles pool every traced round.
func perLayer(traced, untraced []*roundResult) metricSet {
	m := metricSet{}
	n := float64(len(traced))
	by := map[string][]*span{}
	hop := map[linkKey][2]int64{}
	self := map[string]int64{}
	var opTime int64
	cloudWait := make([]int64, nClouds)
	var upBytes, downBytes int64
	var srvRecv, srvStored, srvQueries, srvHits, srvServed, srvServedBytes uint64
	var sent, skipped, downloaded, cacheHit, retries, failovers, sessions int64
	var gwSessions, gwDials, gwRelayed uint64
	var indexBytes, indexFiles, degraded, wait, inflight, gorPeak int64
	var heapPeak uint64
	var gcCycles uint32
	var gcPause time.Duration
	for _, r := range traced {
		for i := range r.spans {
			s := &r.spans[i]
			by[s.Name] = append(by[s.Name], s)
			if s.Op != 0 {
				self[layerOf(s.Name)] += s.Self
			}
			switch layerOf(s.Name) {
			case "op":
				opTime += s.dur()
			case "protocol":
				if s.Cloud >= 0 && s.Cloud < nClouds {
					cloudWait[s.Cloud] += s.dur()
				}
				k := linkKey{s.Op, s.Cloud, s.link}
				h := hop[k]
				h[0] = s.dur()
				hop[k] = h
			case "gateway":
				k := linkKey{s.Op, s.Cloud, s.link}
				h := hop[k]
				h[1] = s.dur()
				hop[k] = h
			}
		}
		upBytes += r.tally.upBytes.Load()
		downBytes += r.tally.downBytes.Load()
		srvRecv += r.srv.SharesReceived
		srvStored += r.srv.SharesStored
		srvQueries += r.srv.IntraQueries
		srvHits += r.srv.IntraHits
		srvServed += r.srv.SharesServed
		srvServedBytes += r.srv.BytesServed
		sent += r.backup.sharesSent
		skipped += r.backup.sharesSkipped
		downloaded += r.restore.downloaded
		cacheHit += r.restore.cacheHit
		retries += r.restore.retries
		failovers += r.restore.failovers
		sessions += int64(r.backup.ops + r.restore.ops)
		gwSessions += r.gw.Sessions
		gwDials += r.gw.UpstreamDials
		gwRelayed += r.gw.Relayed
		indexBytes += r.indexBytes
		indexFiles += int64(r.indexFiles)
		degraded += r.rec.degraded.Load()
		wait += r.rec.writeWait.Load()
		inflight = max(inflight, r.rec.inflight.Load())
		heapPeak = max(heapPeak, r.rec.heapPeak.Load())
		gorPeak = max(gorPeak, r.rec.goroutines.Load())
		gcCycles += r.gcCycles
		gcPause += r.gcPause
	}
	durs := func(name string) []time.Duration {
		var d []time.Duration
		for _, s := range by[name] {
			d = append(d, time.Duration(s.dur()))
		}
		return d
	}
	busy := func(name string) (float64, int64) {
		var t, b int64
		for _, s := range by[name] {
			t += s.dur()
			b += s.Bytes
		}
		return float64(t) / 1e9 / n, b
	}
	perRound := func(v int64) float64 { return float64(v) / n }

	cb, cbytes := busy("chunker.next")
	m.set("chunker.busy_s", "s", cb)
	m.set("chunker.chunks", "count", perRound(int64(len(by["chunker.next"]))))
	m.set("chunker.MBps", "MB/s", ratio(float64(cbytes)/1e6/n, cb))
	for _, k := range []string{"split", "combine"} {
		b, bytes := busy("core." + k)
		m.set("core."+k+".calls", "count", perRound(int64(len(by["core."+k]))))
		m.set("core."+k+".busy_s", "s", b)
		m.set("core."+k+".MBps", "MB/s", ratio(float64(bytes)/1e6/n, b))
	}
	m.set("core.combine.degraded_calls", "count", perRound(degraded))

	for _, k := range rpcKinds {
		d := durs("rpc." + k)
		w, _ := busy("rpc." + k)
		m.set("rpc."+k+".count", "count", perRound(int64(len(d))))
		m.set("rpc."+k+".p50_ms", "ms", ms(quantile(d, 0.5)))
		m.set("rpc."+k+".p99_ms", "ms", ms(quantile(d, 0.99)))
		m.set("rpc."+k+".wait_s", "s", w)
	}
	var total, slowest int64
	slowCloud := 0
	for c, w := range cloudWait {
		total += w
		if w > slowest {
			slowest, slowCloud = w, c
		}
	}
	m.set("rpc.slowest_cloud_wait_share", "ratio", ratio(float64(slowest), float64(total)))
	m.set("rpc.slowest_cloud", "index", float64(slowCloud))
	m.set("wire.up_MB", "MB", float64(upBytes)/1e6/n)
	m.set("wire.down_MB", "MB", float64(downBytes)/1e6/n)
	m.set("wire.inflight_max", "count", float64(inflight))

	for _, k := range serverKinds {
		d := durs("server." + k)
		b, _ := busy("server." + k)
		m.set("server."+k+".service_p50_ms", "ms", ms(quantile(d, 0.5)))
		m.set("server."+k+".service_p99_ms", "ms", ms(quantile(d, 0.99)))
		m.set("server."+k+".busy_s", "s", b)
	}
	m.set("server.intra_hit_ratio", "ratio", ratio(float64(srvHits), float64(srvQueries)))
	m.set("server.inter_dedup_ratio", "ratio", 1-ratio(float64(srvStored), float64(srvRecv)))
	m.set("server.shares_stored", "count", perRound(int64(srvStored)))
	m.set("server.served_MB", "MB", float64(srvServedBytes)/1e6/n)

	m.set("session.count", "count", perRound(sessions))
	for _, k := range []string{"setup", "retire"} {
		d := durs("session." + k)
		m.set("session."+k+"_p50_ms", "ms", ms(quantile(d, 0.5)))
		m.set("session."+k+"_p99_ms", "ms", ms(quantile(d, 0.99)))
	}

	var getBytes int64
	for _, k := range []string{"put", "get"} {
		b, bytes := busy("storage." + k)
		if k == "get" {
			getBytes = bytes
		}
		m.set("storage."+k+".count", "count", perRound(int64(len(by["storage."+k]))))
		m.set("storage."+k+".MB", "MB", float64(bytes)/1e6/n)
		m.set("storage."+k+".busy_s", "s", b)
		m.set("storage."+k+".p99_ms", "ms", ms(quantile(durs("storage."+k), 0.99)))
	}
	m.set("storage.read_amp", "ratio", ratio(float64(getBytes), float64(srvServedBytes)))

	m.set("index.disk_MB", "MB", float64(indexBytes)/1e6/n)
	m.set("index.bytes_per_share", "B", ratio(float64(indexBytes), float64(srvStored)))
	m.set("index.files", "count", perRound(indexFiles))

	wb, _ := busy("restore.write")
	m.set("restore.write.busy_s", "s", wb)
	m.set("restore.write.wait_s", "s", float64(wait)/1e9/n)
	m.set("restore.cache_hit_ratio", "ratio", ratio(float64(cacheHit), float64(cacheHit+downloaded)))
	m.set("restore.subset_retries", "count", perRound(retries))
	m.set("restore.failovers", "count", perRound(failovers))
	m.set("backup.intra_skip_ratio", "ratio", ratio(float64(skipped), float64(sent+skipped)))

	var hops []time.Duration
	for _, h := range hop {
		if h[0] > 0 && h[1] > 0 {
			hops = append(hops, time.Duration(h[0]-h[1]))
		}
	}
	m.set("gateway.sessions", "count", perRound(int64(gwSessions)))
	m.set("gateway.upstream_dials", "count", perRound(int64(gwDials)))
	m.set("gateway.relayed", "count", perRound(int64(gwRelayed)))
	m.set("gateway.hop_p50_ms", "ms", ms(quantile(hops, 0.5)))

	m.set("process.gc_cycles", "count", perRound(int64(gcCycles)))
	m.set("process.gc_pause_s", "s", gcPause.Seconds()/n)
	m.set("process.heap_peak_MB", "MB", float64(heapPeak)/1e6)
	m.set("process.goroutines_peak", "count", float64(gorPeak))
	tracedE2E, _ := endToEnd(traced)
	plainE2E, _ := endToEnd(untraced)
	m.set("trace.overhead_ratio", "ratio", ratio(plainE2E["backup_MBps"].Value, tracedE2E["backup_MBps"].Value))
	m.set("trace.op_s", "s", float64(opTime)/1e9/n)
	for _, l := range selfLayers {
		m.set("self."+l+"_s", "s", float64(self[l])/1e9/n)
	}
	return m
}
