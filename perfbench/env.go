package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"lsmkv"
	"lsmkv/internal/client"
	"lsmkv/internal/replica"
	"lsmkv/internal/server"
)

// env is one engine served over loopback, wired as cmd/lsmserver wires
// it by default: the Default preset, latency tracking on, one shard, a
// replication primary fed by the commit hook, and SyncWrites on, so
// every acknowledged write group is fsynced.
type env struct {
	dir  string
	db   *lsmkv.DB
	prim *replica.Primary
	srvs []*served
}

// served is one server running on a loopback listener.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

func openEnv(dir string) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := lsmkv.Default()
	opts.Shards = 1
	opts.TrackLatency = true
	db, err := lsmkv.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	prim := replica.NewPrimary(replica.PrimaryConfig{Shards: db.NumShards(), LastSeqs: db.LastSeqs})
	db.SetCommitHook(func(shard int, firstSeq uint64, count int, payload []byte) {
		prim.OnCommit(shard, firstSeq, count, payload)
	})
	e := &env{dir: dir, db: db, prim: prim}
	if _, err := e.serve(db); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// serve starts a server fronting eng (the database itself, or the
// tracing shim around it) and returns its address.
func (e *env) serve(eng server.Engine) (string, error) {
	srv, err := server.New(server.Config{DB: eng, SyncWrites: true, Repl: e.prim})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	e.srvs = append(e.srvs, s)
	return s.addr, nil
}

// load writes every loaded key at version 0 over one extra connection,
// in BATCH frames of 256 puts, then flushes and waits until no
// compaction is pending, so the timed window starts on a settled tree.
func (e *env) load(w *workload) error {
	cl, err := client.Dial(e.srvs[0].addr, nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	const batch = 256
	ops := make([]client.Op, 0, batch)
	buf := make([]byte, 0, batch*(keyLen+w.valueSize))
	for n := int64(0); n < w.loaded(); n++ {
		i := n * w.stride
		k := len(buf)
		buf = appendKey(buf, i)
		v := len(buf)
		buf = appendValue(buf, i, 0, w.valueSize)
		ops = append(ops, client.PutOp(buf[k:v], buf[v:]))
		if len(ops) == batch || n == w.loaded()-1 {
			if err := cl.Batch(ops); err != nil {
				return fmt.Errorf("load batch ending at key %d: %w", i, err)
			}
			ops, buf = ops[:0], buf[:0]
		}
	}
	if err := e.db.Flush(); err != nil {
		return err
	}
	return e.db.Compact()
}

// tableBytes is the size of every sorted run in the tree.
func (e *env) tableBytes() uint64 {
	var n uint64
	for _, l := range e.db.Levels() {
		n += l.Bytes
	}
	return n
}

// close drains every server, stops replication, closes the engine and
// removes its directory.
func (e *env) close() error {
	var errs []error
	for _, s := range e.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		errs = append(errs, <-s.done)
	}
	e.prim.Close()
	e.db.SetCommitHook(nil)
	errs = append(errs, e.db.Close(), os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
