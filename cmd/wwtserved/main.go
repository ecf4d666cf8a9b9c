// Command wwtserved is the fault-tolerant sweep service: a long-running
// daemon that accepts batches of runner specs over HTTP/JSON (the same
// cells wwtsweep runs one-shot) and executes them with durability
// guarantees — a WAL-backed job queue that survives kill -9 with no lost or
// duplicated work, a content-addressed result cache kept in that same log
// that serves resubmitted cells bit-identically, supervised execution (panic isolation,
// wall-clock deadlines that preempt-and-resume rather than restart,
// bounded retries), and graceful SIGTERM drain that parks in-flight jobs at
// resume points kept in the same log.
//
// Usage:
//
//	wwtserved [-addr HOST:PORT] [-dir DIR] [-jobs N]
//	          [-max-queue N] [-retries N] [-max-preempts N]
//	          [-deadline DUR] [-backoff DUR] [-drain-timeout DUR] [-quiet]
//	          [-wal-segment-bytes N] [-fault-fsplan PLAN]
//
// -fault-fsplan installs a seeded, deterministic filesystem fault plan
// under the WAL, the service's only durable store — the disk-level
// sibling of wwtsim's -faults/-faultseed — e.g.
// "seed=7,torn=0.02,fsync=0.01,enospc=0.05,crash=123". For testing only.
//
// Drive it with `wwtsweep -server http://HOST:PORT ...` or raw HTTP (see
// internal/serve for the API).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/vfs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8723", "listen address")
	dir := flag.String("dir", "wwtserved-data", "data directory (its wal/ holds the queue, cached results and resume points)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "worker pool size (concurrent runs)")
	maxQueue := flag.Int("max-queue", 4096, "admission bound on pending+running jobs (excess batches get 429)")
	retries := flag.Int("retries", 3, "bounded retries for host-level job failures")
	maxPreempts := flag.Int("max-preempts", 8, "deadline preemptions per job before terminal failure")
	deadline := flag.Duration("deadline", 0, "default per-attempt wall-clock deadline (0 = none); preempts to a resume point")
	backoff := flag.Duration("backoff", 250*time.Millisecond, "base retry backoff (doubles per attempt)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max wait for in-flight jobs to park at a resume point on SIGTERM")
	quiet := flag.Bool("quiet", false, "suppress per-job progress logs")
	segBytes := flag.Int64("wal-segment-bytes", serve.DefaultSegmentBytes, "WAL segment rotation threshold")
	fsplan := flag.String("fault-fsplan", "", "seeded filesystem fault plan (testing), e.g. seed=7,torn=0.02,fsync=0.01,enospc=0.05,crash=N")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var fsys vfs.FS
	if *fsplan != "" {
		plan, err := vfs.ParsePlan(*fsplan)
		if err != nil {
			log.Fatalf("wwtserved: %v", err)
		}
		log.Printf("wwtserved: injecting filesystem faults: %s", *fsplan)
		fsys = vfs.NewFaulty(vfs.OS{}, plan)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("wwtserved: %v", err)
	}
	s, err := serve.New(serve.Config{
		Dir:             *dir,
		FS:              fsys,
		WALSegmentBytes: *segBytes,
		Jobs:            *jobs,
		MaxQueue:        *maxQueue,
		MaxRetries:      *retries,
		MaxPreempts:     *maxPreempts,
		Deadline:        *deadline,
		Backoff:         *backoff,
		Logf:            logf,
	})
	if err != nil {
		log.Fatalf("wwtserved: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("wwtserved: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	s.Start()
	log.Printf("wwtserved: serving on http://%s (data %s, %d workers)", ln.Addr(), *dir, *jobs)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("wwtserved: %v: draining in-flight jobs to resume points", sig)
		if err := s.Drain(*drainTimeout); err != nil {
			log.Printf("wwtserved: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
		if err := s.Close(); err != nil {
			log.Fatalf("wwtserved: close: %v", err)
		}
		fmt.Println("wwtserved: drained cleanly; restart resumes from the WAL")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("wwtserved: serve: %v", err)
		}
	}
}
