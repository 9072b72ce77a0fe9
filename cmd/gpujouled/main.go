// Command gpujouled is the resident simulation service: a long-running
// daemon that accepts sweep jobs over HTTP, runs them on one shared
// run engine, and answers from a persistent content-addressed result
// cache — a warm point never simulates again, across requests and
// across restarts.
//
// Usage:
//
//	gpujouled [-addr :8344] [-cache dir] [-workers n] [-counters]
//	          [-queue n] [-keep-jobs n] [-executors n] [-tenants alice=3,bob=1]
//	          [-peers url1,url2,... -self url | -gateway]
//	          [-vnodes 64] [-peer-timeout 5s] [-no-replicate]
//	          [-drain-timeout 5m] [-version]
//
// Cluster mode. With -peers (a comma-separated list of every node's
// base URL) and -self (this node's own URL from that list), the daemon
// joins a consistent-hash cluster: simulation keys are owned by ring
// position, a local cache miss consults the key's owner and replica
// before recomputing (joining in-flight computations, so a hot key
// computes once cluster-wide), fresh results replicate to the ring
// successor, and submissions wholly owned by another healthy node are
// answered with a 307 to it. With -gateway (plus -peers), the daemon
// instead fronts the cluster: it is the same job server — scheduler,
// SSE streams, partial results, disk cache — but every point its own
// cache misses runs on the key's ring owner as a one-point sub-job
// (failing over along the ring, and computed locally when no healthy
// node remains), so a sweep renders the byte-identical result document
// a single node would. -executors bounds the gateway's in-flight
// remote points. Without -peers everything behaves exactly as a single
// node.
//
// Jobs are decomposed into grid points and scheduled point-by-point:
// weighted-fair across tenants (the X-Tenant request header; -tenants
// configures weights as name=weight[:maxinflight], unlisted tenants
// get weight 1), with job priorities preempting losslessly at point
// boundaries.
//
// The API (see DESIGN.md §The gpujouled service):
//
//	POST   /v1/jobs             submit a sweep job (JSON spec; X-Tenant header)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result deterministic result document (?partial=1 while running)
//	GET    /v1/jobs/{id}/events live SSE event stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/version          build + schema versions
//
// plus the shared introspection plane: /progress, /metrics (with
// cache-hit/miss/coalesce, queue-depth, per-tenant scheduler, and
// preemption series), and /debug/pprof.
//
// On SIGINT/SIGTERM the daemon drains gracefully: admission stops
// (503), queued and running jobs complete, then the process exits. A
// second signal — or the -drain-timeout deadline — aborts in-flight
// work instead.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpujoule/internal/cluster"
	"gpujoule/internal/profiling"
	"gpujoule/internal/service"
	"gpujoule/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpujouled:", err)
		os.Exit(1)
	}
}

// parseTenants parses the -tenants flag: a comma-separated list of
// name=weight or name=weight:maxinflight entries.
func parseTenants(s string) (map[string]service.TenantConfig, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]service.TenantConfig{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: %q is not name=weight[:maxinflight]", entry)
		}
		wstr, istr, hasCap := strings.Cut(val, ":")
		cfg := service.TenantConfig{}
		var err error
		if cfg.Weight, err = strconv.Atoi(wstr); err != nil || cfg.Weight < 1 {
			return nil, fmt.Errorf("-tenants: %q: weight must be a positive integer", entry)
		}
		if hasCap {
			if cfg.MaxInflight, err = strconv.Atoi(istr); err != nil || cfg.MaxInflight < 0 {
				return nil, fmt.Errorf("-tenants: %q: maxinflight must be a non-negative integer", entry)
			}
		}
		out[name] = cfg
	}
	return out, nil
}

func run() error {
	addr := flag.String("addr", ":8344", "listen address")
	cacheDir := flag.String("cache", "gpujouled-cache", "result cache directory (empty disables persistence)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
	counters := flag.Bool("counters", false, "simulate every point with per-GPM/per-link observability counters")
	queueCap := flag.Int("queue", 16, "admission queue capacity (jobs beyond it get 429)")
	keepJobs := flag.Int("keep-jobs", 0, "retained terminal job records (0 = max(64, -queue))")
	executors := flag.Int("executors", 2, "concurrently executing points")
	tenants := flag.String("tenants", "", "per-tenant scheduler config: name=weight[:maxinflight],... (unlisted tenants get weight 1)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "how long a graceful drain may take before aborting")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster node (empty = single-node)")
	self := flag.String("self", "", "this node's own base URL as it appears in -peers (required with -peers unless -gateway)")
	gateway := flag.Bool("gateway", false, "front the -peers cluster: run each point on its ring owner")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per physical node on the hash ring")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "per-peer cache request timeout (includes in-flight waits)")
	noReplicate := flag.Bool("no-replicate", false, "disable pushing fresh results to the key's ring owner and successor")
	freqMHz := flag.Float64("freq", 0, "default K40 V/f-curve operating point in MHz for grid jobs that did not pick one (0 = nominal 1000)")
	version := flag.Bool("version", false, "print schema and module version, then exit")
	flag.Parse()

	if *version {
		fmt.Println(profiling.VersionString("gpujouled"))
		return nil
	}

	tcfg, err := parseTenants(*tenants)
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "gpujouled: ", log.LstdFlags)

	nodeList := sim.SplitList(*peers)
	if *gateway && len(nodeList) == 0 {
		return errors.New("-gateway needs -peers")
	}
	if len(nodeList) > 0 && !*gateway && *self == "" {
		return errors.New("-peers needs -self (this node's URL from the list) unless -gateway is set")
	}

	// The fabric exists before the server so its hooks can be wired
	// into service.Options; a gateway is not a ring member (Self "").
	var fab *cluster.Fabric
	if len(nodeList) > 0 {
		fself := *self
		if *gateway {
			fself = ""
		}
		var ferr error
		fab, ferr = cluster.NewFabric(cluster.Options{
			Self:        fself,
			Nodes:       nodeList,
			VNodes:      *vnodes,
			PeerTimeout: *peerTimeout,
			NoReplicate: *noReplicate,
			Logf:        logger.Printf,
		})
		if ferr != nil {
			return ferr
		}
		defer fab.Close()
	}

	// Terminal-job retention must outlast the admission queue: a
	// client reads a job's events after it finishes, so a node that
	// admits N concurrent jobs but remembers only 64 would prune
	// results before they are collected.
	kj := *keepJobs
	if kj <= 0 {
		kj = *queueCap
		if kj < 64 {
			kj = 64
		}
	}

	sopts := service.Options{
		Workers:        *workers,
		Counters:       *counters,
		CacheDir:       *cacheDir,
		QueueCap:       *queueCap,
		Executors:      *executors,
		Tenants:        tcfg,
		KeepJobs:       kj,
		Logf:           logger.Printf,
		DefaultFreqMHz: *freqMHz,
	}
	switch {
	case *gateway:
		sopts.Cluster = fab.GatewayHooks()
	case fab != nil:
		sopts.Cluster = fab.Hooks()
	}
	srv, err := service.New(sopts)
	if err != nil {
		return err
	}
	if fab != nil {
		srv.AddMetrics(fab.WriteMetrics)
		if *gateway {
			logger.Printf("gateway fronting ring %v", fab.Ring().Nodes())
		} else {
			logger.Printf("cluster node %s in ring %v", *self, fab.Ring().Nodes())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	logger.Printf("listening on http://%s/ (cache %q, stamp %q)", ln.Addr(), *cacheDir, service.CacheStamp())
	if c := srv.Cache(); c != nil {
		if n, err := c.Len(); err == nil {
			logger.Printf("result cache holds %d entries", n)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admission, let queued and running jobs
	// finish. A second signal (stop() restored default handling would
	// kill us anyway) or the timeout falls back to a hard close.
	logger.Printf("draining (timeout %s)...", *drainTimeout)
	stop()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Printf("%v; aborting in-flight jobs", err)
		srv.Close()
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained, bye")
	return nil
}
