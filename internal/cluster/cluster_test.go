package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpujoule/internal/service"
)

// swapHandler lets an httptest server start (fixing its URL) before
// the handler that needs that URL exists.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testNode is one cluster member under test.
type testNode struct {
	url string
	ts  *httptest.Server
	srv *service.Server
	fab *Fabric
}

// startNodes brings up an n-node loopback cluster with per-node disk
// caches under t.TempDir(). Node URLs are the httptest URLs, so the
// ring layout differs run to run — which is the point: determinism
// must not depend on placement.
func startNodes(t *testing.T, n int, fopts func(*Options)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	for i := range nodes {
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{url: ts.URL, ts: ts}
		urls[i] = ts.URL
	}
	for i, nd := range nodes {
		opts := Options{Self: nd.url, Nodes: urls, PeerTimeout: 5 * time.Second}
		if fopts != nil {
			fopts(&opts)
		}
		fab, err := NewFabric(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fab.Close)
		srv, err := service.New(service.Options{
			CacheDir:  filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i)),
			Executors: 4,
			QueueCap:  64,
			Cluster:   fab.Hooks(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		nd.fab, nd.srv = fab, srv
		sh := nd.ts.Config.Handler.(*swapHandler)
		sh.set(srv.Handler())
	}
	return nodes
}

// testGateway is a gateway under test: a plain service.Server whose
// cache misses run on the ring through its fabric's GatewayHooks.
type testGateway struct {
	url string
	srv *service.Server
	fab *Fabric
	cl  *service.Client
}

// startGateway fronts the node set with a gateway on its own httptest
// server, with a client dialed at it. executors bounds the gateway's
// in-flight remote points.
func startGateway(t *testing.T, nodes []*testNode, executors int, opts ...service.ClientOption) *testGateway {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	fab, err := NewFabric(Options{Nodes: urls, PeerTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Close)
	srv, err := service.New(service.Options{
		CacheDir:  filepath.Join(t.TempDir(), "gateway"),
		Executors: executors,
		QueueCap:  64,
		Cluster:   fab.GatewayHooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl, err := service.Dial(append([]service.ClientOption{service.WithBaseURL(ts.URL)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return &testGateway{url: ts.URL, srv: srv, fab: fab, cl: cl}
}

// singleNodeDigest is the reference: the sha256 of spec's result
// document from one plain single-node service.
func singleNodeDigest(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	single, err := service.New(service.Options{Executors: 2, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	st, err := single.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := single.Wait(context.Background(), st.ID)
	if err != nil || fin.State != service.StateDone {
		t.Fatalf("single-node reference: %+v, err %v", fin, err)
	}
	pts, results, _ := single.Result(st.ID)
	return service.ResultDocDigest(service.MakeResultDoc(pts, results))
}

// testSpec is the shared sweep for the determinism tests: small enough
// to simulate quickly, wide enough (8 points, 2 workloads) to shard
// across a 3-node ring.
func testSpec() service.JobSpec {
	return service.JobSpec{Workloads: "Stream,Kmeans", Scale: 0.05, GPMs: "1,2", BWs: "1x,2x"}
}

// TestClusterDeterminism is the tentpole invariant: the rendered
// result document (and hence its sha256) is byte-identical whether a
// sweep runs on a single node, through a 3-node gateway, or through
// the same gateway after a node has been killed.
func TestClusterDeterminism(t *testing.T) {
	ctx := context.Background()
	spec := testSpec()

	// Reference: one plain single-node service.
	single, err := service.New(service.Options{Executors: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	scl, err := service.Dial(service.WithBaseURL(sts.URL))
	if err != nil {
		t.Fatal(err)
	}
	refDoc, err := scl.RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := service.ResultDocDigest(*refDoc)

	// Distributed: 3 nodes behind a gateway, streamed.
	nodes := startNodes(t, 3, nil)
	gcl := startGateway(t, nodes, 4).cl
	var mismatches int
	gotDoc, err := gcl.RunSweepStream(ctx, spec, func(ev service.JobEvent) {
		if ev.Kind == service.EventDigestMismatch {
			mismatches++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := service.ResultDocDigest(*gotDoc); got != ref {
		t.Errorf("gateway digest %s != single-node digest %s", got, ref)
	}
	if mismatches != 0 {
		t.Errorf("streamed reassembly hit %d digest mismatches", mismatches)
	}

	// Degraded: kill one node hard (drop live connections too) and
	// sweep again through the same gateway. Its points reroute to the
	// successor or compute on the gateway; bytes must not change.
	nodes[1].ts.CloseClientConnections()
	nodes[1].ts.Close()
	killedDoc, err := gcl.RunSweepStream(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := service.ResultDocDigest(*killedDoc); got != ref {
		t.Errorf("post-kill gateway digest %s != single-node digest %s", got, ref)
	}
}

// TestPeerCacheHit: a key computed on one node is served to another
// node from the peer cache — no recomputation, counted as PeerHits.
// Replication is disabled so the hit must come from peering, not from
// a replica that landed on the second node's own disk.
func TestPeerCacheHit(t *testing.T) {
	nodes := startNodes(t, 2, func(o *Options) { o.NoReplicate = true })
	ctx := context.Background()
	spec := testSpec()

	cla, err := service.Dial(service.WithBaseURL(nodes[0].url), service.WithNoRedirect())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cla.RunSweep(ctx, spec); err != nil {
		t.Fatal(err)
	}

	// With 2 nodes, Successors(key, 2) always includes node A, so
	// every one of B's local misses must resolve via peering.
	clb, err := service.Dial(service.WithBaseURL(nodes[1].url), service.WithNoRedirect())
	if err != nil {
		t.Fatal(err)
	}
	st, err := clb.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := clb.Wait(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ferr := fin.Err(); ferr != nil {
		t.Fatal(ferr)
	}
	if fin.PeerHits != fin.Points || fin.Submitted != 0 {
		t.Errorf("status = peer_hits %d, submitted %d over %d points; want all peer hits, nothing simulated",
			fin.PeerHits, fin.Submitted, fin.Points)
	}
	if hits := nodes[1].fab.peerHits.Load(); hits == 0 {
		t.Errorf("fabric counted %d peer hits", hits)
	}
}

// TestRouteReroutesUnhealthy: routing walks the successor chain past
// an unhealthy owner and counts the detour; with every remote down it
// degrades to local compute ("").
func TestRouteReroutesUnhealthy(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	fab, err := NewFabric(Options{Self: "http://a:1", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	// Find a key owned by b with c as next successor, so the detour
	// lands on a remote node rather than self.
	var key string
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("sim-key-%d", i)
		succ := fab.Ring().Successors(k, 2)
		if succ[0] == "http://b:1" && succ[1] == "http://c:1" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key with the wanted b->c successor chain in 10000 tries")
	}

	if got := fab.Route(key); got != "http://b:1" {
		t.Fatalf("healthy route = %q; want the owner b", got)
	}
	fab.MarkFailed("http://b:1")
	if got := fab.Route(key); got != "http://c:1" {
		t.Fatalf("route past unhealthy owner = %q; want the successor c", got)
	}
	if n := fab.rerouted.Load(); n != 1 {
		t.Errorf("rerouted counter = %d; want 1", n)
	}
	fab.MarkFailed("http://c:1")
	if got := fab.Route(key); got != "" {
		t.Errorf("route with all remotes down = %q; want \"\" (local compute)", got)
	}
}

// TestGatewaySchedulerFeatures: a gateway is a plain service.Server,
// so the scheduler's features cover gateway traffic with no copy of
// them. Through a 3-node gateway, a priority-10 job submitted mid-sweep
// finishes first, a running job serves ?partial=1, SSE resumes from
// Last-Event-ID, and every remotely resolved point event names its
// node — while both documents stay sha256-identical to a single-node
// run.
func TestGatewaySchedulerFeatures(t *testing.T) {
	ctx := context.Background()
	low := service.JobSpec{Workloads: "Stream,Kmeans", Scale: 0.05, GPMs: "1,2,4,8", BWs: "1x,2x"}
	high := service.JobSpec{Workloads: "BFS", Scale: 0.05, GPMs: "1,2", BWs: "1x", Priority: 10}
	lowRef, highRef := singleNodeDigest(t, low), singleNodeDigest(t, high)

	nodes := startNodes(t, 3, nil)
	// One executor: the gateway resolves one point at a time, so the
	// dispatch order is the scheduler's decision alone.
	gw := startGateway(t, nodes, 1)
	stLow, err := gw.cl.Submit(ctx, low)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "the low-priority job's first point", func() bool {
		st, ok := gw.srv.Status(stLow.ID)
		return ok && st.PointsDone >= 1
	})
	stHigh, err := gw.cl.Submit(ctx, high)
	if err != nil {
		t.Fatal(err)
	}

	// The low job is mid-sweep: its partial document has the final
	// shape with some, not all, points resolved.
	partial, err := gw.cl.Partial(ctx, stLow.ID)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, p := range partial.Points {
		if p.Result != nil {
			resolved++
		}
	}
	if len(partial.Points) != stLow.Points || resolved == 0 || resolved == stLow.Points {
		t.Errorf("partial doc: %d points, %d resolved; want %d points, partly resolved", len(partial.Points), resolved, stLow.Points)
	}

	finHigh, err := gw.cl.Wait(ctx, stHigh.ID, 5*time.Millisecond)
	if err != nil || finHigh.State != service.StateDone {
		t.Fatalf("high-priority job: %+v, err %v", finHigh, err)
	}
	finLow, err := gw.cl.Wait(ctx, stLow.ID, 5*time.Millisecond)
	if err != nil || finLow.State != service.StateDone {
		t.Fatalf("low-priority job: %+v, err %v", finLow, err)
	}
	if !finHigh.Finished.Before(finLow.Finished) {
		t.Errorf("high-priority job finished at %v, after the low-priority job (%v)", finHigh.Finished, finLow.Finished)
	}
	if finLow.Preemptions != 1 {
		t.Errorf("low-priority job preemptions = %d, want 1", finLow.Preemptions)
	}
	for _, c := range []struct {
		id, ref string
	}{{stLow.ID, lowRef}, {stHigh.ID, highRef}} {
		doc, err := gw.cl.Result(ctx, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := service.ResultDocDigest(*doc); got != c.ref {
			t.Errorf("job %s: gateway digest %s != single-node digest %s", c.id, got, c.ref)
		}
	}
	// Every partial entry is the final entry.
	final, err := gw.cl.Result(ctx, stLow.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range partial.Points {
		if p.Result == nil {
			continue
		}
		a, _ := json.Marshal(p)
		b, _ := json.Marshal(final.Points[i])
		if string(a) != string(b) {
			t.Errorf("partial point %d differs from the final document", i)
		}
	}

	// Every point resolved on a ring node, and its event says which.
	urls := map[string]bool{}
	for _, nd := range nodes {
		urls[nd.url] = true
	}
	var all []service.JobEvent
	if _, err := gw.cl.Stream(ctx, stLow.ID, 0, func(ev service.JobEvent) error {
		all = append(all, ev)
		if ev.Kind == service.EventPoint && !urls[ev.Node] {
			t.Errorf("point event %+v does not name a ring node", ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// SSE resume: Last-Event-ID k replays exactly the events after k.
	const lastSeen = 2
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gw.url+"/v1/jobs/"+stLow.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(lastSeen))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) != len(all)-lastSeen-1 || len(ids) == 0 || ids[0] != fmt.Sprint(lastSeen+1) || ids[len(ids)-1] != fmt.Sprint(all[len(all)-1].Seq) {
		t.Errorf("resumed stream ids %v; want %d..%d", ids, lastSeen+1, all[len(all)-1].Seq)
	}
}

// TestGatewayFailover: a point whose owner is dead fails over along
// the ring, and the document is still sha256-identical to a
// single-node run.
func TestGatewayFailover(t *testing.T) {
	ctx := context.Background()
	spec := service.JobSpec{Workloads: "Stream,Kmeans", Scale: 0.06, GPMs: "1,2", BWs: "1x,2x"}
	ref := singleNodeDigest(t, spec)

	nodes := startNodes(t, 3, nil)
	gw := startGateway(t, nodes, 2)
	pts, err := service.ExpandPoints(spec)
	if err != nil {
		t.Fatal(err)
	}
	dead := gw.fab.Route(pts[0].Key())
	for _, nd := range nodes {
		if nd.url == dead {
			nd.ts.CloseClientConnections()
			nd.ts.Close()
		}
	}
	doc, err := gw.cl.RunSweepStream(ctx, spec, func(ev service.JobEvent) {
		if ev.Kind == service.EventPoint && (ev.Node == "" || ev.Node == dead) {
			t.Errorf("point event %+v: want a live ring node", ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := service.ResultDocDigest(*doc); got != ref {
		t.Errorf("post-kill gateway digest %s != single-node digest %s", got, ref)
	}
	if n := gw.fab.failovers.Load(); n == 0 {
		t.Error("no failover counted for the dead owner's points")
	}
}

// TestGatewayCancelPropagates: cancelling a gateway job cancels its
// remote sub-jobs too, instead of leaving them running on their nodes.
func TestGatewayCancelPropagates(t *testing.T) {
	ctx := context.Background()
	const tenant = "cancel-test"
	// Two points of a few seconds each, many launches apiece: the
	// simulation checks for cancellation between launches.
	spec := service.JobSpec{Workloads: "MiniAMR", Scale: 2, GPMs: "4", BWs: "1x,2x"}

	nodes := startNodes(t, 3, nil)
	gw := startGateway(t, nodes, 2, service.WithTenant(tenant))
	st, err := gw.cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	subJobs := func() (live, cancelled int) {
		for _, nd := range nodes {
			for _, js := range nd.srv.Jobs() {
				switch {
				case js.Tenant != tenant:
				case !js.State.Terminal():
					live++
				case js.State == service.StateCancelled:
					cancelled++
				}
			}
		}
		return live, cancelled
	}
	waitFor(t, 30*time.Second, "a remote sub-job to start", func() bool {
		live, _ := subJobs()
		return live > 0
	})
	if _, err := gw.cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "every remote sub-job to be cancelled", func() bool {
		live, cancelled := subJobs()
		return live == 0 && cancelled > 0
	})
	if fin, err := gw.cl.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || fin.State != service.StateCancelled {
		t.Errorf("gateway job: %+v, err %v; want cancelled", fin, err)
	}
}

// waitFor polls cond until it holds or the bound expires.
func waitFor(t *testing.T, bound time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", bound, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
