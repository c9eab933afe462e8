package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cdstore/internal/protocol"
	"cdstore/internal/workload"
)

func tinyBulk() *workloadSpec {
	return &workloadSpec{name: "tiny-bulk", inflight: 1,
		generate: func(seed int64) *inputs { return uniqueInputs(seed, 512<<10) }}
}

func tinyGateway() *workloadSpec {
	return &workloadSpec{name: "tiny-gateway", gateway: true, inflight: 2,
		generate: func(seed int64) *inputs {
			return traceInputs(workload.GenerateVM(workload.VMConfig{Users: 3, Weeks: 2, ChunksPerImage: 40, Seed: seed}))
		}}
}

func TestFrameParserAcrossBoundaries(t *testing.T) {
	var stream []byte
	put := protocol.EncodeShareBatch([]protocol.ShareUpload{{Data: make([]byte, 100)}, {Data: make([]byte, 50)}})
	for _, m := range []struct {
		typ     byte
		payload []byte
	}{{protocol.MsgHello, make([]byte, 8)}, {protocol.MsgPutShares, put}, {protocol.MsgBye, nil}} {
		var hdr [5]byte
		hdr[0] = m.typ
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(m.payload)))
		stream = append(append(stream, hdr[:]...), m.payload...)
	}
	for step := 1; step <= len(stream); step++ {
		var p frameParser
		var starts []byte
		var frames []frame
		for off := 0; off < len(stream); off += step {
			end := off + step
			if end > len(stream) {
				end = len(stream)
			}
			p.feed(stream[off:end], func(b byte) { starts = append(starts, b) }, func(f frame) {
				f.head = append([]byte(nil), f.head...)
				frames = append(frames, f)
			})
		}
		if len(frames) != 3 || len(starts) != 3 {
			t.Fatalf("step %d: %d frames, %d starts, want 3", step, len(frames), len(starts))
		}
		if f := frames[1]; f.typ != protocol.MsgPutShares || f.count() != 2 || int64(f.plen)-4-16*f.count() != 150 {
			t.Fatalf("step %d: put frame %+v", step, f)
		}
		if frames[2].typ != protocol.MsgBye || frames[2].plen != 0 {
			t.Fatalf("step %d: bye frame %+v", step, frames[2])
		}
	}
}

// TestForcedFailuresAreCounted restores a path that does not exist and
// a file whose expected digest is wrong: both count as failed
// operations, neither aborts the phase, and the mismatch is reported.
func TestForcedFailuresAreCounted(t *testing.T) {
	spec := tinyBulk()
	cl, err := startCluster(t.TempDir(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	in := spec.generate(1)
	rd := &round{spec: spec, in: in, cl: cl}
	if b := rd.phase(backupOp, in.files); b.failed != 0 {
		t.Fatalf("backup failed: %v", b.errs)
	}
	missing := in.files[0]
	missing.path = "/no/such/file"
	corrupt := in.files[0]
	corrupt.digest[0] ^= 1
	r := rd.phase(restoreOp, []fileSpec{in.files[0], missing, corrupt})
	if r.ops != 3 || r.failed != 2 || r.mismatches != 1 {
		t.Fatalf("ops=%d failed=%d mismatches=%d, want 3, 2, 1 (%v)", r.ops, r.failed, r.mismatches, r.errs)
	}
	rr := &roundResult{backup: &phaseStats{ops: 1}, restore: r}
	m, _ := endToEnd([]*roundResult{rr})
	if got := m["ok_ops_ratio"].Value; got != 0.5 {
		t.Errorf("ok_ops_ratio = %v, want 0.5", got)
	}
}

func TestCrossCheckReportsDrift(t *testing.T) {
	rr, err := runRound(tinyBulk(), tinyBulk().generate(2), 0, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.crossErrs) != 0 {
		t.Fatalf("clean round: %v", rr.crossErrs)
	}
	rr.tally.putBytes.Add(1)
	rr.tally.servedShares.Add(1)
	if errs := crossCheck(rr, false); len(errs) != 2 {
		t.Fatalf("cross-check found %d drifts, want 2: %v", len(errs), errs)
	}
}

// TestTracedRoundSelfTimesAddUp checks, on the direct and the gateway
// path, that every operation's span self times add up to its duration
// and that the layers below the client were traced.
func TestTracedRoundSelfTimesAddUp(t *testing.T) {
	for _, spec := range []*workloadSpec{tinyBulk(), tinyGateway()} {
		rr, err := runRound(spec, spec.generate(3), 0, t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		if rr.backup.failed+rr.restore.failed != 0 || len(rr.crossErrs) != 0 {
			t.Fatalf("%s: failures %v %v %v", spec.name, rr.backup.errs, rr.restore.errs, rr.crossErrs)
		}
		sum := map[uint64]int64{}
		n := map[uint64]int{}
		names := map[string]bool{}
		for _, s := range rr.spans {
			sum[s.Op] += s.Self
			n[s.Op]++
			names[s.Name] = true
		}
		ops := 0
		for _, s := range rr.spans {
			if s.ID != s.Op {
				continue
			}
			ops++
			if diff := sum[s.Op] - s.dur(); diff > int64(n[s.Op]) || diff < -int64(n[s.Op]) {
				t.Errorf("%s op %d: self times add to %d ns, op took %d ns", spec.name, s.Op, sum[s.Op], s.dur())
			}
		}
		if want := rr.backup.ops + rr.restore.ops; ops != want {
			t.Errorf("%s: %d op spans, want %d", spec.name, ops, want)
		}
		want := []string{"rpc.put", "server.put", "core.split", "core.combine", "rpc.get", "server.get", "restore.write"}
		if spec.gateway {
			want = append(want, "gw.put")
		} else {
			want = append(want, "chunker.next", "server.bye", "storage.put")
		}
		for _, w := range want {
			if !names[w] {
				t.Errorf("%s: no %s span", spec.name, w)
			}
		}
	}
}

func TestComputeSelfSplitsConcurrentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.backup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "client.backup", Start: 0, End: 100},
		{ID: 3, Parent: 2, Op: 1, Name: "core.split", Start: 10, End: 50},
		{ID: 4, Parent: 2, Op: 1, Name: "rpc.put", Start: 30, End: 120}, // clipped at 100
		{ID: 5, Parent: 4, Op: 1, Name: "server.put", Start: 60, End: 90},
	}
	computeSelf(spans)
	want := map[uint64]int64{1: 0, 2: 10, 3: 30, 4: 30, 5: 30}
	// 0-10 client; 10-30 split; 30-50 split and rpc share; 50-60 rpc;
	// 60-90 server; 90-100 rpc.
	var total int64
	for _, s := range spans {
		total += s.Self
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	if total != 100 {
		t.Errorf("self times add to %d, want 100", total)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workload {
		if findWorkload(w.Name, 2) == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	plain, err := runRound(tinyBulk(), tinyBulk().generate(4), 0, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(tinyBulk(), tinyBulk().generate(4), 0, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd([]*roundResult{plain})
	layers := perLayer([]*roundResult{traced}, []*roundResult{plain})
	for _, c := range []struct {
		got  metricSet
		decl []struct{ Name, Unit string }
	}{{e2e, decl.EndToEnd}, {layers, decl.PerLayer}} {
		if len(c.got) != len(c.decl) {
			t.Errorf("run prints %d metrics, BENCHMARK.json declares %d", len(c.got), len(c.decl))
		}
		for _, d := range c.decl {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: printed %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
}

func TestTailRank(t *testing.T) {
	samples := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(n - i) // unsorted on purpose
		}
		return d
	}
	for _, c := range []struct {
		n    int
		want time.Duration
	}{{1, 1}, {5, 3}, {20, 10}, {21, 11}, {100, 90}} {
		if got, _ := tail(samples(c.n)); got != c.want {
			t.Errorf("n=%d: tail %d, want %d", c.n, got, c.want)
		}
	}
}
