package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"cdstore/internal/dedup"
	"cdstore/internal/workload"
)

// workloadSpec is one benchmark workload. Every workload is a closed
// loop in one process: inflight sessions run at a time, each starting
// its next operation only after the previous one has ended.
type workloadSpec struct {
	name string
	// gateway routes every session through one gateway per cloud.
	gateway bool
	// delays is the one-way delay per cloud, or nil for plain loopback.
	delays   []time.Duration
	inflight int
	generate func(seed int64) *inputs
}

// Input volumes. A round takes one to four seconds on two cores, so a
// run holds five or more rounds to take medians over.
const (
	bulkBytes     = 64 << 20
	wanBytes      = 16 << 20
	fslUsers      = 9
	fslWeeks      = 3
	fslChunks     = 1000
	vmImages      = 32
	vmWeeks       = 3
	vmImageChunks = 250
)

func workloads(nproc int) []*workloadSpec {
	inflight := 2
	if nproc < inflight {
		inflight = nproc
	}
	return []*workloadSpec{
		{
			name:     "bulk-unique",
			inflight: 1,
			generate: func(seed int64) *inputs { return uniqueInputs(seed, bulkBytes) },
		},
		{
			// One session at a time: with two in flight, each session's Bye
			// flush also flushes the other's half-built memtables and
			// containers, and the run-to-run spread of backup_MBps doubled
			// (IQR/median 0.22 against 0.12 over five seeds).
			name:     "fsl-weekly",
			inflight: 1,
			generate: func(seed int64) *inputs {
				return traceInputs(workload.GenerateFSL(workload.FSLConfig{
					Users: fslUsers, Weeks: fslWeeks, ChunksPerUser: fslChunks, Seed: seed}))
			},
		},
		{
			name:     "vm-gateway",
			gateway:  true,
			inflight: inflight,
			generate: func(seed int64) *inputs {
				return traceInputs(workload.GenerateVM(workload.VMConfig{
					Users: vmImages, Weeks: vmWeeks, ChunksPerImage: vmImageChunks, Seed: seed}))
			},
		},
		{
			name: "wan-straggler",
			delays: []time.Duration{100 * time.Millisecond, 10 * time.Millisecond,
				10 * time.Millisecond, 10 * time.Millisecond},
			inflight: 1,
			generate: func(seed int64) *inputs { return uniqueInputs(seed, wanBytes) },
		},
	}
}

func findWorkload(name string, nproc int) *workloadSpec {
	for _, w := range workloads(nproc) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fileSpec is one file a workload backs up and restores.
type fileSpec struct {
	user uint64
	path string
	// data is the file's bytes, chunked by Client.Backup; when nil the
	// file is the trace chunk list chunks, fed to Client.BackupStream.
	data   []byte
	chunks []dedup.Chunk
	size   int64
	digest [sha256.Size]byte
	// after is the index of the file that must be done first (the same
	// user's previous week), or -1.
	after int
}

type inputs struct {
	files   []fileSpec
	content map[uint64][]byte // trace chunk contents by chunk id
}

func uniqueInputs(seed int64, n int) *inputs {
	data := workload.UniqueData(seed, n)
	return &inputs{files: []fileSpec{{user: 1, path: "/bulk/unique.bin", data: data,
		size: int64(n), digest: sha256.Sum256(data), after: -1}}}
}

// traceInputs lays out backups[week][user] week by week; the chunk
// contents are made once here, so the timed phases only read them.
func traceInputs(backups [][]workload.Backup) *inputs {
	in := &inputs{content: map[uint64][]byte{}}
	for w, week := range backups {
		for u, b := range week {
			h := sha256.New()
			for _, c := range b.Chunks {
				data, ok := in.content[c.ID]
				if !ok {
					data = workload.ChunkContent(c.ID, c.Size)
					in.content[c.ID] = data
				}
				h.Write(data)
			}
			f := fileSpec{user: uint64(b.User) + 1, path: fmt.Sprintf("/home/u%02d/week%02d", b.User, b.Week),
				chunks: b.Chunks, size: workload.TotalBytes(b), after: -1}
			copy(f.digest[:], h.Sum(nil))
			if w > 0 {
				f.after = (w-1)*len(week) + u
			}
			in.files = append(in.files, f)
		}
	}
	return in
}

// traceChunks yields a trace file's chunks as secrets.
type traceChunks struct {
	chunks  []dedup.Chunk
	content map[uint64][]byte
	i       int
}

func (t *traceChunks) NextChunk() ([]byte, error) {
	if t.i >= len(t.chunks) {
		return nil, io.EOF
	}
	c := t.chunks[t.i]
	t.i++
	return t.content[c.ID], nil
}
