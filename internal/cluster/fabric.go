package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpujoule/internal/profiling"
	"gpujoule/internal/runner"
	"gpujoule/internal/service"
	"gpujoule/internal/sim"
)

// Options configures a node's Fabric.
type Options struct {
	// Self is this node's own base URL exactly as it appears in Nodes
	// (empty for a gateway-only fabric that is not itself a ring
	// member).
	Self string
	// Nodes is the full cluster membership, including Self.
	Nodes []string
	// VNodes is the virtual-node count per physical node (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// PeerTimeout bounds every peer cache request, including the
	// singleflight wait for a key the peer is computing right now
	// (default 5s). A wait that times out is a miss — the point
	// computes locally — never a health failure.
	PeerTimeout time.Duration
	// ReplicaQueue bounds the async replication queue (default 1024);
	// pushes beyond it are dropped and counted, never blocked on.
	ReplicaQueue int
	// NoReplicate disables pushing fresh results to the key's ring
	// owner and successor.
	NoReplicate bool
	// HTTPClient is the shared transport for peer and gateway sub-job
	// requests (default: a fresh client; pass one with a large pool for
	// big clusters).
	HTTPClient *http.Client
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Fabric is one server's view of the cluster: the ring, per-peer
// health, cache peering, the replication queue, and — for a gateway —
// ring-routed remote execution. Wire it into a service.Server via
// Hooks() on a ring node or GatewayHooks() on a gateway.
type Fabric struct {
	self    string
	ring    *Ring
	health  *healthTracker
	hc      *http.Client
	clients map[string]*service.Client
	timeout time.Duration
	logfFn  func(format string, args ...any)

	repCh   chan repTask
	repWG   sync.WaitGroup
	repOff  bool
	closing atomic.Bool

	peerHits    atomic.Uint64 // results served from a peer cache
	peerMisses  atomic.Uint64 // peer consultations that found nothing
	peerErrors  atomic.Uint64 // peer requests that failed (transport/protocol)
	stampSkips  atomic.Uint64 // peers skipped for a cache-stamp mismatch
	rerouted    atomic.Uint64 // keys routed past an unhealthy owner
	repSent     atomic.Uint64 // replica entries delivered
	repDropped  atomic.Uint64 // replica pushes dropped on a full queue
	repErrors   atomic.Uint64 // replica deliveries that failed
	repEnqueued atomic.Uint64 // replica deliveries accepted into the queue
	subJobs     atomic.Uint64 // gateway sub-jobs submitted (incl. failover resubmits)
	failovers   atomic.Uint64 // gateway points rerouted after a node failure
}

// repTask is one queued replica delivery.
type repTask struct {
	node     string
	cacheKey string
	raw      []byte
}

// replicationWorkers is the concurrency of the replication drain: low
// on purpose — replication is a background optimization and must not
// compete with serving traffic for connections.
const replicationWorkers = 2

// NewFabric builds a node fabric. Callers must Close it.
func NewFabric(opts Options) (*Fabric, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 5 * time.Second
	}
	if opts.ReplicaQueue <= 0 {
		opts.ReplicaQueue = 1024
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	f := &Fabric{
		self:    opts.Self,
		ring:    NewRing(opts.Nodes, opts.VNodes),
		health:  newHealthTracker(),
		hc:      hc,
		clients: map[string]*service.Client{},
		timeout: opts.PeerTimeout,
		logfFn:  opts.Logf,
		repCh:   make(chan repTask, opts.ReplicaQueue),
		repOff:  opts.NoReplicate,
	}
	if opts.Self != "" && f.ring.Owner(opts.Self) == "" {
		return nil, errors.New("cluster: empty ring")
	}
	if opts.Self != "" {
		found := false
		for _, n := range f.ring.Nodes() {
			if n == opts.Self {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q is not in the node list %v", opts.Self, f.ring.Nodes())
		}
	}
	for _, n := range f.ring.Nodes() {
		c, err := service.Dial(service.WithBaseURL(n), service.WithHTTPClient(hc), service.WithNoRedirect())
		if err != nil {
			return nil, err
		}
		f.clients[n] = c
	}
	for i := 0; i < replicationWorkers; i++ {
		f.repWG.Add(1)
		go f.replicator()
	}
	return f, nil
}

// Close stops the replication workers, dropping whatever is still
// queued (replication is best-effort by contract).
func (f *Fabric) Close() {
	if f.closing.Swap(true) {
		return
	}
	close(f.repCh)
	f.repWG.Wait()
}

// Ring exposes the fabric's hash ring.
func (f *Fabric) Ring() *Ring { return f.ring }

func (f *Fabric) logf(format string, args ...any) {
	if f.logfFn != nil {
		f.logfFn(format, args...)
	}
}

// MarkFailed records an out-of-band failure of a node (a gateway
// sub-job that died mid-stream), entering it into health backoff so
// routing steers around it.
func (f *Fabric) MarkFailed(node string) { f.health.MarkFail(node) }

// Route returns the node that should handle simKey right now: the
// ring owner if healthy, else its first healthy successor ("degrading"
// clockwise), else "" — meaning compute locally. Self is reported as
// "" too (the caller is the right node already). Keys that route past
// an unhealthy owner are counted as rerouted.
func (f *Fabric) Route(simKey string) string {
	succ := f.ring.Successors(simKey, f.ring.Len())
	for i, node := range succ {
		if node == f.self {
			return ""
		}
		if f.health.Available(node) {
			if i > 0 {
				f.rerouted.Add(1)
			}
			return node
		}
	}
	return ""
}

// peerGet consults the key's owner and first replica for a cached
// result, joining an in-flight computation on the serving node
// (wait=1) so a hot key computes once cluster-wide. It validates the
// peer's cache stamp and the entry's decodability before trusting it.
// A ring node's service.ClusterHooks.Resolve: hits resolve with source
// "peer" and the serving node.
func (f *Fabric) peerGet(ctx context.Context, _ string, _ service.JobSpec, pt runner.Point, cacheKey string) (*sim.Result, string, string, bool, error) {
	stamp := service.CacheStamp()
	consulted := false
	for _, node := range f.ring.Successors(pt.Key(), 2) {
		if node == f.self || !f.health.Available(node) {
			continue
		}
		consulted = true
		pctx, cancel := context.WithTimeout(ctx, f.timeout)
		raw, peerStamp, ok, err := f.clients[node].CacheGetRaw(pctx, cacheKey, true)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// The peer is alive but slow (or still computing the
				// key): a miss, not a failure.
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, "", "", false, cerr // our own job died; don't blame the peer
			}
			f.peerErrors.Add(1)
			f.health.MarkFail(node)
			f.logf("cluster: peer %s cache get: %v", node, err)
			continue
		}
		f.health.MarkOK(node)
		if !ok {
			continue
		}
		if peerStamp != stamp {
			f.stampSkips.Add(1)
			f.logf("cluster: peer %s cache stamp %q != ours %q; skipping", node, peerStamp, stamp)
			continue
		}
		var res sim.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			f.peerErrors.Add(1)
			f.logf("cluster: peer %s returned undecodable entry for %s: %v", node, cacheKey, err)
			continue
		}
		f.peerHits.Add(1)
		return &res, "peer", node, true, nil
	}
	if consulted {
		f.peerMisses.Add(1)
	}
	return nil, "", "", false, nil
}

// cancelTimeout bounds the DELETE a gateway sends to abandon a remote
// sub-job once the point's own context is gone.
const cancelTimeout = 5 * time.Second

// runRemote is a gateway's service.ClusterHooks.Resolve: it runs the
// point on its ring route (the owner, or the first healthy successor
// past an unhealthy one) as a one-point explicit sub-job billed to the
// owning job's tenant, with the job's priority and deadline. The
// sub-job's stream is digest-checked by the client, and the point
// resolves with the node's own source and URL. A node that fails is
// put in health backoff and the point moves to the first healthy
// successor not yet tried; with no candidate left it reports ok false
// and the gateway computes the point itself.
func (f *Fabric) runRemote(ctx context.Context, tenant string, spec service.JobSpec, pt runner.Point, _ string) (*sim.Result, string, string, bool, error) {
	key := pt.Key()
	sub := service.SpecFor(spec, []runner.Point{pt})
	var tried []string
	for node := f.Route(key); node != ""; node = f.nextUntried(key, tried) {
		res, src, err := f.runOn(ctx, node, tenant, sub)
		if err == nil {
			f.health.MarkOK(node)
			return res, src, node, true, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, "", "", false, cerr
		}
		tried = append(tried, node)
		f.MarkFailed(node)
		f.failovers.Add(1)
		f.logf("cluster: %s on %s failed (%v); failing over", pt, node, err)
	}
	return nil, "", "", false, nil
}

// nextUntried returns the key's first healthy ring successor not in
// tried, or "" when the chain is exhausted.
func (f *Fabric) nextUntried(key string, tried []string) string {
	for _, node := range f.ring.Successors(key, f.ring.Len()) {
		if node != f.self && !slices.Contains(tried, node) && f.health.Available(node) {
			return node
		}
	}
	return ""
}

// runOn runs one explicit-point sub-job on node and returns its result
// and the source the node reported. When ctx dies the sub-job is
// cancelled on the node: RunSweepStream only drops the stream, which
// would leave the node spending executors on a point nobody is waiting
// for. Cancelling needs the sub-job's id, and a submit aborted in
// flight may still be admitted, so a ctx that dies before the node has
// answered the submission gives it cancelTimeout to answer first.
func (f *Fabric) runOn(ctx context.Context, node, tenant string, sub service.JobSpec) (*sim.Result, string, error) {
	sctx, scancel := context.WithCancel(context.WithoutCancel(ctx))
	defer scancel()
	var submitted atomic.Bool
	stop := context.AfterFunc(ctx, func() {
		if submitted.Load() {
			scancel()
		} else {
			time.AfterFunc(cancelTimeout, scancel)
		}
	})
	defer stop()
	var id, src string
	c, err := service.Dial(
		service.WithBaseURL(node),
		service.WithTenant(tenant),
		service.WithNoRedirect(),
		service.WithHTTPClient(f.hc),
		service.WithLogf(f.logfFn),
		service.WithSubmitted(func(st service.JobStatus) {
			id = st.ID
			submitted.Store(true)
			if ctx.Err() != nil {
				scancel()
			}
		}),
	)
	if err != nil {
		return nil, "", err
	}
	f.subJobs.Add(1)
	doc, err := c.RunSweepStream(sctx, sub, func(ev service.JobEvent) {
		if ev.Kind == service.EventPoint {
			src = ev.Source
		}
	})
	if err != nil {
		if ctx.Err() != nil && id != "" {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelTimeout)
			if _, cerr := c.Cancel(cctx, id); cerr != nil {
				f.logf("cluster: cancelling sub-job %s on %s: %v", id, node, cerr)
			}
			cancel()
		}
		return nil, "", err
	}
	if len(doc.Points) != 1 || doc.Points[0].Result == nil {
		return nil, "", fmt.Errorf("cluster: node %s returned no result for sub-job %s", node, id)
	}
	return doc.Points[0].Result, src, nil
}

// Replicate enqueues a freshly computed result for delivery to the
// key's ring owner and first successor (skipping self). Non-blocking:
// a full queue drops the push and counts it. Implements
// service.ClusterHooks.Replicate.
func (f *Fabric) Replicate(simKey, cacheKey string, res *sim.Result) {
	if f.repOff || f.closing.Load() {
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return // a sim.Result always marshals; defensive only
	}
	for _, node := range f.ring.Successors(simKey, 2) {
		if node == f.self || !f.health.Available(node) {
			continue
		}
		select {
		case f.repCh <- repTask{node: node, cacheKey: cacheKey, raw: raw}:
			f.repEnqueued.Add(1)
		default:
			f.repDropped.Add(1)
		}
	}
}

// replicator drains the replication queue.
func (f *Fabric) replicator() {
	defer f.repWG.Done()
	stamp := service.CacheStamp()
	for task := range f.repCh {
		ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
		err := f.clients[task.node].CachePutRaw(ctx, task.cacheKey, task.raw, stamp)
		cancel()
		if err != nil {
			f.repErrors.Add(1)
			f.health.MarkFail(task.node)
			f.logf("cluster: replicating to %s: %v", task.node, err)
			continue
		}
		f.repSent.Add(1)
		f.health.MarkOK(task.node)
	}
}

// Hooks bundles a ring node's fabric into the service's cluster seam:
// peer-cache resolution, replication, and 307 routing.
func (f *Fabric) Hooks() *service.ClusterHooks {
	h := &service.ClusterHooks{
		Resolve:    f.peerGet,
		RouteOwner: f.Route,
	}
	if !f.repOff {
		h.Replicate = f.Replicate
	}
	return h
}

// GatewayHooks bundles a gateway's fabric (Self "") into the service's
// cluster seam: every point the gateway's own cache misses runs on its
// ring route. A gateway neither replicates nor redirects, so clients
// always stream from the gateway, never from a node that may die
// mid-stream.
func (f *Fabric) GatewayHooks() *service.ClusterHooks {
	return &service.ClusterHooks{Resolve: f.runRemote}
}

// WriteMetrics emits the fabric's Prometheus families; register it on
// the node's /metrics via service.Server.AddMetrics.
func (f *Fabric) WriteMetrics(w io.Writer) {
	profiling.WriteCounter(w, "gpujoule_cluster_peer_hits", "Results served from a peer node's cache.", float64(f.peerHits.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_peer_misses", "Peer cache consultations that found nothing.", float64(f.peerMisses.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_peer_errors", "Peer cache requests that failed.", float64(f.peerErrors.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_stamp_skips", "Peer entries skipped for a cache-stamp mismatch.", float64(f.stampSkips.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_rerouted_keys", "Keys routed past an unhealthy owner to a successor.", float64(f.rerouted.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_replica_enqueued", "Replica deliveries accepted into the queue.", float64(f.repEnqueued.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_replica_sent", "Replica entries delivered to peers.", float64(f.repSent.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_replica_dropped", "Replica pushes dropped on a full queue.", float64(f.repDropped.Load()))
	profiling.WriteCounter(w, "gpujoule_cluster_replica_errors", "Replica deliveries that failed.", float64(f.repErrors.Load()))
	// Replication lag: deliveries accepted but not yet applied.
	pending := f.repEnqueued.Load() - f.repSent.Load() - f.repErrors.Load()
	profiling.WriteGauge(w, "gpujoule_cluster_replica_pending", "Replica deliveries queued and not yet delivered (replication lag).", float64(pending))
	profiling.WriteGauge(w, "gpujoule_cluster_peers_unhealthy", "Peers currently in health backoff.", float64(len(f.health.Unhealthy())))
	profiling.WriteGauge(w, "gpujoule_cluster_ring_nodes", "Physical nodes in the hash ring.", float64(f.ring.Len()))
	profiling.WriteCounter(w, "gpujoule_gateway_subjobs", "One-point sub-jobs a gateway submitted to cluster nodes (including failover resubmits).", float64(f.subJobs.Load()))
	profiling.WriteCounter(w, "gpujoule_gateway_failovers", "Gateway points rerouted after a node failure.", float64(f.failovers.Load()))
}
