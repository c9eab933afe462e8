package main

import (
	"hash"

	"cdstore/internal/chunker"
	"cdstore/internal/core"
	"cdstore/internal/secretshare"
	"cdstore/internal/storage"
)

// The wrappers below time calls into one layer's public functions from
// the benchmark's side of the API, in traced rounds only.

// timedBackend times a server's storage backend. Each call is parented
// to the request the server had most recently started serving.
type timedBackend struct {
	storage.Backend
	tr *serverTrace
}

func (b *timedBackend) record(name string, start int64, n int) {
	top := b.tr.top()
	b.tr.rec.add(span{ID: b.tr.rec.id(), Parent: top.id, Op: top.op.opID(), Name: name,
		Cloud: b.tr.cloud, Start: start, End: b.tr.rec.now(), Bytes: int64(n)})
}

func (b *timedBackend) Put(name string, data []byte) error {
	start := b.tr.rec.now()
	err := b.Backend.Put(name, data)
	b.record("storage.put", start, len(data))
	return err
}

func (b *timedBackend) Get(name string) ([]byte, error) {
	start := b.tr.rec.now()
	data, err := b.Backend.Get(name)
	b.record("storage.get", start, len(data))
	return data, err
}

// timedScheme is the default CAONT-RS scheme behind a timer; it keeps
// the arena entry points, so the client takes the same code path.
type timedScheme struct {
	*core.CAONTRS
	op *opTrace
}

var _ secretshare.ArenaScheme = (*timedScheme)(nil)

func newTimedScheme(op *opTrace) (*timedScheme, error) {
	c, err := core.NewCAONTRS(nClouds, kClouds)
	if err != nil {
		return nil, err
	}
	return &timedScheme{CAONTRS: c, op: op}, nil
}

func (s *timedScheme) Split(secret []byte) ([][]byte, error) {
	start := s.op.rec.now()
	shares, err := s.CAONTRS.Split(secret)
	s.op.add("core.split", -1, start, s.op.rec.now(), int64(len(secret)))
	return shares, err
}

func (s *timedScheme) SplitInto(secret []byte, a *secretshare.Arena) ([][]byte, error) {
	start := s.op.rec.now()
	shares, err := s.CAONTRS.SplitInto(secret, a)
	s.op.add("core.split", -1, start, s.op.rec.now(), int64(len(secret)))
	return shares, err
}

func (s *timedScheme) Combine(shares map[int][]byte, size int) ([]byte, error) {
	s.countDegraded(shares)
	start := s.op.rec.now()
	out, err := s.CAONTRS.Combine(shares, size)
	s.op.add("core.combine", -1, start, s.op.rec.now(), int64(size))
	return out, err
}

func (s *timedScheme) CombineInto(shares map[int][]byte, size int, a *secretshare.Arena) ([]byte, error) {
	s.countDegraded(shares)
	start := s.op.rec.now()
	out, err := s.CAONTRS.CombineInto(shares, size, a)
	s.op.add("core.combine", -1, start, s.op.rec.now(), int64(size))
	return out, err
}

// countDegraded counts decodes that use a parity share, which happens
// when a primary cloud was replaced by a spare.
func (s *timedScheme) countDegraded(shares map[int][]byte) {
	for i := range shares {
		if i >= kClouds {
			s.op.rec.degraded.Add(1)
			return
		}
	}
}

// timedChunks is the chunker Backup would build, behind a timer, as the
// chunk source of BackupStream.
type timedChunks struct {
	ck chunker.Chunker
	op *opTrace
}

func (t *timedChunks) NextChunk() ([]byte, error) {
	start := t.op.rec.now()
	c, err := t.ck.Next()
	t.op.add("chunker.next", -1, start, t.op.rec.now(), int64(len(c.Data)))
	if err != nil {
		return nil, err
	}
	return c.Data, nil
}

// restoreSink hashes a restored file; in traced rounds it also times
// each write and the idle time before it.
type restoreSink struct {
	h    hash.Hash
	op   *opTrace
	last int64 // when the previous write returned, or the restore began
}

func (w *restoreSink) Write(p []byte) (int, error) {
	if w.op == nil {
		return w.h.Write(p)
	}
	start := w.op.rec.now()
	w.op.rec.writeWait.Add(start - w.last)
	n, err := w.h.Write(p)
	end := w.op.rec.now()
	w.op.add("restore.write", -1, start, end, int64(n))
	w.last = end
	return n, err
}
