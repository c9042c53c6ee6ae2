// Command rlsimd serves simulation campaigns over HTTP: submit a job
// spec (a figure to regenerate or an explicit point list plus a
// profile), poll its status, stream progress as server-sent events,
// fetch the result, or cancel it. See internal/server for the API.
//
// Usage:
//
//	rlsimd [-addr 127.0.0.1:8080] [-jobs 1] [-queue 16] [-grace 30s] [-spool DIR]
//	       [-cache-dir DIR] [-cache-entries N]
//	       [-peers URL,URL...] [-worker] [-heartbeat 5s] [-dead-after 15s]
//	       [-probe-timeout 2s] [-breaker-threshold 3] [-breaker-cooldown 10s]
//	       [-hedge-after 0]
//	       [-pprof] [-log-level info] [-version]
//
// The daemon serves Prometheus-format metrics on /metrics and logs
// structured JSON lines to stderr; -pprof additionally mounts
// net/http/pprof under /debug/pprof/ for live profiling. Jobs
// submitted with "spans": true record a distributed trace of the
// campaign pipeline — stitched across workers in cluster mode — served
// by GET /v1/jobs/{id}/spans as JSON or an HTML waterfall
// (?format=html).
//
// On SIGINT/SIGTERM the daemon stops accepting jobs and waits up to
// -grace for running jobs to finish before cancelling them.
//
// With -spool the daemon journals every accepted job (and its result)
// to DIR; after a crash or kill, restarting with the same -spool
// restores finished jobs and re-runs interrupted ones, reproducing the
// exact results the interrupted run would have delivered.
//
// Every campaign point flows through a content-addressed result cache;
// -cache-dir spools it to disk so repeated points survive restarts
// (without -cache-dir, -spool puts it under DIR/cache, so a re-run job
// takes the points that finished before the crash from it), and
// -cache-entries bounds the in-memory tier. With -peers the daemon
// coordinates: campaign points fan out across the named worker daemons
// (more join at runtime via POST /v1/cluster/register), probed every
// -heartbeat (each probe bounded by -probe-timeout) and retired after
// -dead-after without a successful probe. Per-worker circuit breakers
// trip after -breaker-threshold consecutive failures and block the
// worker for -breaker-cooldown before a half-open trial; straggling
// leases older than -hedge-after are duplicated to an idle worker and
// the first result wins (0 adapts to observed lease latency, a
// negative value disables hedging). With -worker the daemon only
// serves leases and never fans out. The two roles are mutually
// exclusive.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rlsched/internal/config"
	"rlsched/internal/obs"
	"rlsched/internal/server"
)

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses flags, serves until ctx
// is cancelled, then shuts down gracefully and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rlsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	jobs := fs.Int("jobs", 1, "jobs executed concurrently")
	queue := fs.Int("queue", 16, "queued jobs accepted beyond the running ones")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period for running jobs")
	spool := fs.String("spool", "", "spool directory for the durable job journal, and for the result cache unless -cache-dir is set (empty: in-memory only)")
	cacheDir := fs.String("cache-dir", "", "spool directory for the content-addressed result cache (empty: -spool's cache subdirectory, else in-memory only)")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory result cache entries (0: default)")
	peers := fs.String("peers", "", "comma-separated worker base URLs to fan campaign points out to")
	workerMode := fs.Bool("worker", false, "serve cluster leases only; never fan out to peers")
	heartbeat := fs.Duration("heartbeat", 0, "cluster worker health-probe interval (0: default 5s)")
	deadAfter := fs.Duration("dead-after", 0, "retire a worker after this long without a successful probe (0: default 3x heartbeat)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe HTTP timeout, must be under -heartbeat (0: default 2s)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive lease/probe failures that trip a worker's circuit breaker (0: default 3)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long a tripped breaker blocks a worker before a half-open trial (0: default 2x heartbeat)")
	hedgeAfter := fs.Duration("hedge-after", 0, "straggling lease age before the point is hedged to a second worker (0: adaptive, negative: disabled)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "rlsimd %s\n", obs.ReadBuildInfo())
		return 0
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "rlsimd: %v\n", err)
		return 2
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	srv, err := server.New(server.Options{
		Jobs:       *jobs,
		QueueDepth: *queue,
		SpoolDir:   *spool,
		Logger:     obs.NewLogger(stderr, level),
		Pprof:      *pprofOn,
		Cache: config.CacheSpec{
			Dir:        *cacheDir,
			MaxEntries: *cacheEntries,
		},
		Cluster: config.ClusterSpec{
			Peers:              peerList,
			Worker:             *workerMode,
			HeartbeatSec:       heartbeat.Seconds(),
			DeadAfterSec:       deadAfter.Seconds(),
			ProbeTimeoutSec:    probeTimeout.Seconds(),
			BreakerThreshold:   *breakerThreshold,
			BreakerCooldownSec: breakerCooldown.Seconds(),
			HedgeAfterSec:      hedgeAfter.Seconds(),
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "rlsimd: %v\n", err)
		return 1
	}
	obs.RegisterBuildInfo(srv.Registry(), obs.ReadBuildInfo())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rlsimd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "rlsimd listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
	case err := <-errCh:
		fmt.Fprintf(stderr, "rlsimd: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "rlsimd shutting down (grace %s)\n", *grace)
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Stop the listener first so no new jobs arrive, then drain the
	// job queue (cancelling what is still running once grace expires).
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		fmt.Fprintf(stderr, "rlsimd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(graceCtx); err != nil {
		fmt.Fprintf(stderr, "rlsimd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "rlsimd stopped")
	return 0
}
