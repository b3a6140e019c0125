package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/tensor"
)

// Options configures a Fleet.
type Options struct {
	// Hosts are the maestro-serve base URLs the fleet dispatches to,
	// e.g. {"http://10.0.0.1:8080", "http://10.0.0.2:8080"}. At least
	// one is required; duplicates are a configuration error.
	Hosts []string
	// Client is the per-node client template; BaseURL is overwritten
	// with each host. The zero value uses the client defaults.
	Client client.Options
	// ShardsPerNode sets the target shard count as a multiple of the
	// host count (default InflightPerNode: one shard per dispatch slot).
	// More shards mean finer re-dispatch, steal and crash-resume
	// granularity at the cost of per-request overhead; the target is
	// raised automatically until no shard exceeds a server's
	// MaxDSEGrid cap. A different value can cut a sweep differently,
	// and then a journal written under the old value does not replay.
	ShardsPerNode int
	// InflightPerNode caps one sweep's concurrent shard requests per
	// node (default 2). The slots belong to the sweep, so concurrent
	// sweeps each get their own.
	InflightPerNode int
	// Rounds bounds how many times a shard may walk the whole ring
	// before the sweep fails (default 3). Each failover within a round
	// is a re-dispatch; a backoff separates full ring wraps.
	Rounds int
	// StragglerFactor triggers work-stealing: a shard whose sole
	// running attempt is older than this multiple of the median
	// completed-shard latency is re-issued on an idle healthy node
	// (default 4; the first finisher wins, the loser is discarded).
	StragglerFactor float64
	// StragglerMin is the minimum attempt age before stealing kicks in
	// (default 150ms), so fast sweeps never pay duplicate work.
	StragglerMin time.Duration
	// WatchTick is the straggler watchdog period (default 25ms).
	WatchTick time.Duration
	// OnShard, when set, streams each settled shard of either sweep
	// kind as it merges, replayed ones included (duplicates from stolen
	// attempts are not streamed). Called from request goroutines; must
	// be safe for concurrent use.
	OnShard func(ShardResult)
	// CheckpointDir, when set, makes sweeps durable: every accepted
	// shard result is appended to a checksummed write-ahead journal in
	// this directory and fsync'd before the shard counts as done. See
	// journal.go for the record format.
	CheckpointDir string
	// Resume replays an existing journal in CheckpointDir before
	// dispatching: shards whose results were durably accepted by an
	// interrupted run are restored from disk and only the remainder is
	// dispatched. Without Resume a pre-existing journal is discarded.
	Resume bool
}

func (o Options) withDefaults() Options {
	if o.InflightPerNode <= 0 {
		o.InflightPerNode = 2
	}
	if o.ShardsPerNode <= 0 {
		o.ShardsPerNode = o.InflightPerNode
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 4
	}
	if o.StragglerMin <= 0 {
		o.StragglerMin = 150 * time.Millisecond
	}
	if o.WatchTick <= 0 {
		o.WatchTick = 25 * time.Millisecond
	}
	return o
}

// ShardResult is one settled shard, streamed via OnShard. Exactly one
// of Resp and Fusion is set, by the sweep's kind; a fusion chunk fills
// only Shard.Index and Shard.Of.
type ShardResult struct {
	Shard    dse.Shard
	Host     string // node that produced the accepted result
	Stolen   bool   // true when a watchdog-stolen attempt won
	Replayed bool   // true when restored from the checkpoint journal
	Resp     *serve.DSEResponse
	Fusion   *serve.FusionResponse
}

// Dispatch counts how the fleet ran one sweep's shards; Result and
// FusionResult embed it.
type Dispatch struct {
	Elapsed      time.Duration
	Shards       int
	Redispatched int64 // failover attempts after a node refused or failed a shard
	Stolen       int64 // duplicate attempts launched by the straggler watchdog
	Discarded    int64 // duplicate results dropped by at-most-once accounting
	Replayed     int   // shards restored from the checkpoint journal, not dispatched
	// JournalErrors counts shard results that merged but could not be
	// made durable (append or fsync failed). The sweep still completes;
	// a later resume re-dispatches those shards.
	JournalErrors int64

	// TraceID is the distributed trace the sweep ran under (empty when
	// tracing was off). It is the key for pulling node-local span
	// segments and assembling the stitched fleet trace.
	TraceID string
}

// Result is a completed distributed sweep: the merged Pareto front in
// canonical point order, the per-objective optima (nil exactly when the
// front is empty), and the aggregated exploration counters (counted
// at-most-once per shard, however many attempts ran).
type Result struct {
	Pareto        []dse.Point
	ThroughputOpt *dse.Point
	EnergyOpt     *dse.Point
	EDPOpt        *dse.Point

	Raw      int64
	Explored int64
	Invoked  int64
	Pricings int64
	Valid    int64

	Dispatch
}

// Rate reports explored designs per wall-clock second.
func (r *Result) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Explored) / r.Elapsed.Seconds()
}

// NodeStats counts one node's share of fleet traffic.
type NodeStats struct {
	// Shards is the number of shard results accepted from this node.
	Shards int64
	// Errors is the number of failed shard attempts on this node.
	Errors int64
	// Breaker is the node's circuit-breaker position at snapshot time.
	Breaker client.BreakerState
}

// Stats is a point-in-time snapshot of fleet activity.
type Stats struct {
	Sweeps       int64
	Shards       int64
	Redispatched int64
	Stolen       int64
	Discarded    int64
	PerNode      map[string]NodeStats
}

// Fleet dispatches sharded DSE and fusion sweeps across maestro-serve
// nodes. Safe for concurrent use.
type Fleet struct {
	opts    Options
	ring    *ring
	clients map[string]*client.Client

	mu      sync.Mutex
	stats   Stats // the fleet-wide counters; Stats fills PerNode from perNode
	perNode map[string]*NodeStats
	// lastLatencies holds the most recent completed sweep's per-shard
	// latencies, feeding the federated shard-timeline quantiles.
	lastLatencies []time.Duration
}

// New builds a Fleet over opts.Hosts.
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	if err := validateHosts(opts.Hosts); err != nil {
		return nil, err
	}
	f := &Fleet{
		opts:    opts,
		clients: make(map[string]*client.Client, len(opts.Hosts)),
		perNode: make(map[string]*NodeStats, len(opts.Hosts)),
	}
	for _, h := range opts.Hosts {
		copts := opts.Client
		copts.BaseURL = h
		c, err := client.New(copts)
		if err != nil {
			return nil, fmt.Errorf("fleet: host %q: %w", h, err)
		}
		f.clients[h] = c
		f.perNode[h] = &NodeStats{}
	}
	f.ring = newRing(opts.Hosts)
	return f, nil
}

// validateHosts rejects configurations that would silently misbehave:
// an empty list, empty entries, URLs the client cannot dial, and
// duplicates — a host listed twice is double-weighted on the ring and
// double-counted by InflightPerNode, which is never what the operator
// meant.
func validateHosts(hosts []string) error {
	if len(hosts) == 0 {
		return errors.New("fleet: no hosts")
	}
	seen := make(map[string]string, len(hosts))
	for _, h := range hosts {
		if strings.TrimSpace(h) == "" {
			return errors.New("fleet: empty host entry")
		}
		u, err := url.Parse(h)
		if err != nil {
			return fmt.Errorf("fleet: host %q: %w", h, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return fmt.Errorf("fleet: host %q: scheme must be http or https", h)
		}
		if u.Host == "" {
			return fmt.Errorf("fleet: host %q: missing host:port authority", h)
		}
		if u.RawQuery != "" || u.Fragment != "" {
			return fmt.Errorf("fleet: host %q: base URL must not carry a query or fragment", h)
		}
		// Normalize so "http://a:8080" and "http://a:8080/" collide.
		key := u.Scheme + "://" + u.Host + strings.TrimRight(u.Path, "/")
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("fleet: duplicate host %q (same node as %q)", h, prev)
		}
		seen[key] = h
	}
	return nil
}

// Close releases the per-node clients' idle connections.
func (f *Fleet) Close() {
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
}

// Stats snapshots fleet counters and live per-node breaker positions.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	st := f.stats
	st.PerNode = make(map[string]NodeStats, len(f.perNode))
	for h, ns := range f.perNode {
		st.PerNode[h] = *ns
	}
	f.mu.Unlock()
	// Breaker positions are read live from each client, outside the
	// fleet lock (Stats never calls back into the fleet).
	for h, c := range f.clients {
		ns := st.PerNode[h]
		ns.Breaker = c.BreakerState()
		st.PerNode[h] = ns
	}
	return st
}

// shardRun is one shard's dispatch state.
type shardRun struct {
	shard dse.Shard // a fusion chunk fills only Index and Of
	// call sends the shard's scoped request to one node and returns the
	// answer in the one journal-record payload its sweep kind fills.
	call  func(context.Context, *client.Client) (journalRecord, error)
	route []string // failover order, preferred node first
	// hash is the canonical hash of the shard's scoped request; it keys
	// the shard's journal record, so a resumed sweep only replays a
	// record into the exact same slice of the space. Empty when the
	// sweep keeps no journal.
	hash string

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cursor int // next route position to try
	live   map[int]liveAttempt
	nextID int
	stole  bool
	done   bool // guarded by sweep.mu, not sr.mu
}

// liveAttempt is one in-flight request the watchdog can judge.
type liveAttempt struct {
	start time.Time
	host  string
}

// sweep is the shard runner's per-sweep state, for either sweep kind.
type sweep struct {
	f      *Fleet
	kind   string // journalKindDSE or journalKindFusion
	ctx    context.Context
	cancel context.CancelFunc
	sem    hostSlots
	shards []*shardRun
	jnl    *journal // nil when checkpointing is off
	wg     sync.WaitGroup

	mu        sync.Mutex
	merge     func(*journalRecord) // the kind's fold of one answer; called under mu
	d         Dispatch
	latencies []time.Duration
	completed int
	err       error

	doneCh chan struct{}
	failCh chan struct{}
	fail   sync.Once
}

// Sweep partitions req's design space, dispatches the shards across the
// fleet, and returns the merged result. The request's unset axes are
// filled with the same defaults a single server applies, so the merged
// front is identical to what one node would compute for the whole
// space. Sweep blocks until every shard completes, the context is
// cancelled, or a shard exhausts its failover budget.
func (f *Fleet) Sweep(ctx context.Context, req serve.DSERequest) (*Result, error) {
	runs, layer, err := f.plan(req)
	if err != nil {
		return nil, err
	}
	var sum dse.Summary // the shards' answers, merged
	d, err := f.run(ctx, journalKindDSE, func() (string, error) { return sweepHashDSE(req) }, runs,
		func(rec *journalRecord) { sum.Merge(rec.DSE.Summary()) },
		obs.String("layer", layer.Name), obs.String("template", req.Template))
	if err != nil {
		return nil, err
	}
	st := sum.Stats
	res := &Result{Pareto: sum.Front, Dispatch: d,
		Raw: st.Raw, Explored: st.Explored, Invoked: st.Invoked, Pricings: st.Priced, Valid: st.Valid}
	if len(res.Pareto) > 0 {
		res.ThroughputOpt, res.EnergyOpt, res.EDPOpt = &sum.ThroughputOpt, &sum.EnergyOpt, &sum.EDPOpt
	}
	return res, nil
}

// run is the shard runner both sweep kinds share. When checkpointing,
// it opens the sweep's write-ahead journal (kind names the file, the
// hash sweepHash computes keys it) and replays the journaled shards;
// it dispatches the rest along their routes with straggler stealing,
// and settles each shard once: journaled first, then folded into the
// caller's answer by merge, which runs under the runner's lock. attrs
// label the fleet.sweep span.
func (f *Fleet) run(ctx context.Context, kind string, sweepHash func() (string, error), runs []*shardRun, merge func(*journalRecord), attrs ...obs.Attr) (Dispatch, error) {
	start := time.Now()
	// Open the write-ahead journal before anything is dispatched: a
	// checkpointed sweep that cannot journal must fail loudly rather
	// than silently run undurable.
	var jnl *journal
	if f.opts.CheckpointDir != "" {
		hash, err := sweepHash()
		if err != nil {
			return Dispatch{}, fmt.Errorf("fleet: hashing %s sweep request: %w", kind, err)
		}
		if jnl, err = openJournal(f.opts.CheckpointDir, kind, hash, f.opts.Resume); err != nil {
			return Dispatch{}, err
		}
	}

	ctx, span := obs.Start(ctx, "fleet.sweep",
		append(attrs, obs.Int("shards", len(runs)), obs.Int("hosts", len(f.opts.Hosts)))...)
	defer span.End()
	traceID := span.TraceID()
	if traceID != "" {
		// Stamp one request ID across every shard request the sweep fans
		// out, so all nodes' access logs grep by the sweep's identity.
		ctx = client.WithRequestID(ctx, "sweep-"+traceID[:16])
	}

	sw := &sweep{
		f:      f,
		kind:   kind,
		merge:  merge,
		sem:    newHostSlots(f.opts.Hosts, f.opts.InflightPerNode),
		shards: runs,
		jnl:    jnl,
		d:      Dispatch{Shards: len(runs), TraceID: traceID},
		doneCh: make(chan struct{}),
		failCh: make(chan struct{}),
	}
	sw.ctx, sw.cancel = context.WithCancel(ctx)
	defer sw.cancel()
	for _, sr := range runs {
		sr.ctx, sr.cancel = context.WithCancel(sw.ctx)
		sr.live = make(map[int]liveAttempt, 2)
	}

	f.mu.Lock()
	f.stats.Sweeps++
	f.stats.Shards += int64(len(runs))
	f.mu.Unlock()

	// Replay journaled shards before dispatching anything: a record only
	// restores into the shard whose scoped-request hash and partition
	// shape it was written for, so a changed host count or grid simply
	// re-dispatches instead of merging the wrong slice.
	pending := runs
	if jnl != nil {
		pending = nil
		for _, sr := range runs {
			if rec, ok := jnl.lookup(sr.hash); ok &&
				rec.Of == len(runs) && rec.Shard == sr.shard.Index {
				sw.accept(sr, rec, true, 0)
			} else {
				pending = append(pending, sr)
			}
		}
	}
	for _, sr := range pending {
		sw.wg.Add(1)
		go sw.runShard(sr)
	}
	watchdogDone := make(chan struct{})
	go func() { defer close(watchdogDone); sw.watchdog() }()

	select {
	case <-sw.doneCh:
	case <-sw.failCh:
	case <-ctx.Done():
	}
	sw.cancel()
	sw.wg.Wait()
	<-watchdogDone

	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.completed < len(runs) {
		// The sweep did not finish: keep the journal on disk so a later
		// Resume replays the shards that were durably accepted.
		if jnl != nil {
			jnl.close()
		}
		if sw.err != nil {
			return Dispatch{}, sw.err
		}
		return Dispatch{}, fmt.Errorf("fleet: sweep cancelled: %w", ctx.Err())
	}
	if jnl != nil {
		jnl.finish() // complete: nothing left to resume
	}
	d := sw.d
	d.Elapsed = time.Since(start)
	f.mu.Lock()
	f.lastLatencies = append([]time.Duration(nil), sw.latencies...)
	f.mu.Unlock()
	span.SetAttr(obs.Int64("redispatched", d.Redispatched), obs.Int64("stolen", d.Stolen),
		obs.Int("replayed", d.Replayed))
	return d, nil
}

// plan fills the request's defaults, partitions the design space, and
// computes each shard's scoped request and failover route. The target
// shard count is ShardsPerNode per host, raised until no shard exceeds
// a server's per-request cap on raw designs. PE and
// P1 axes are sorted and deduplicated first so contiguous index chunks
// are contiguous value ranges — which is what the shard descriptor's
// [PEMin, PEMax] expresses — and so repeat sweeps produce byte-equal
// shard requests that hit the nodes' result caches. Routes come from
// ring.placeBounded, so no node holds more than its even share of the
// sweep's shards.
func (f *Fleet) plan(req serve.DSERequest) ([]*shardRun, tensor.Layer, error) {
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		return nil, tensor.Layer{}, fmt.Errorf("fleet: %w", err)
	}
	req = req.WithDefaults()
	req.PEs = sortedDedup(req.PEs)
	p1 := sortedDedup(req.P1)
	req.P1 = p1

	// A shard can only be scoped along the PE and P1 axes; if the
	// remaining axes alone exceed a server's cap, no partition helps.
	inner := int64(len(req.P2)) * int64(len(req.BWs)) *
		int64(len(req.L1Grid)) * int64(len(req.L2Grid))
	if inner > serve.MaxDSEGrid {
		return nil, layer, fmt.Errorf("fleet: inner grid spans %d raw designs per (pe, p1) cell, over the per-shard cap %d", inner, serve.MaxDSEGrid)
	}
	raw := inner * int64(len(req.PEs)) * int64(len(p1))
	target := len(f.opts.Hosts) * f.opts.ShardsPerNode
	if need := int((raw + serve.MaxDSEGrid - 1) / serve.MaxDSEGrid); need > target {
		target = need
	}
	shards := dse.Partition(req.PEs, p1, target)
	if len(shards) == 0 {
		return nil, layer, errors.New("fleet: empty design space")
	}
	// Partition splits whole PE counts first, so its chunks can be
	// uneven and the largest can still exceed the cap; single-cell
	// shards always fit, given the inner check above.
	for overCap(shards, inner) {
		target++
		shards = dse.Partition(req.PEs, p1, target)
	}
	keys := make([]serve.Key, len(shards))
	for i, sh := range shards {
		keys[i] = serve.DSERouteKey(layer, req.Template, sh.PEs)
	}
	routes := f.ring.placeBounded(keys)
	runs := make([]*shardRun, 0, len(shards))
	for i, sh := range shards {
		sreq := req
		sreq.P1 = sh.P1
		// Untruncated shard fronts: the global front is a subset of the
		// union of shard fronts only when no shard clips its own.
		sreq.TopK = 1 << 30
		sreq.Shard = &serve.DSEShard{
			Index: sh.Index, Of: sh.Of,
			PEMin: sh.PEs[0], PEMax: sh.PEs[len(sh.PEs)-1],
			Mappings: []string{req.Template},
		}
		// The shard's journal key, when journaling: its scoped request
		// with the delivery-only knobs zeroed, so a retried sweep with a
		// different timeout still resumes cleanly.
		var hash string
		if f.opts.CheckpointDir != "" {
			hreq := sreq
			hreq.TimeoutMs = 0
			hreq.NoCache = false
			if hash, err = canonicalHash(journalKindDSE, hreq); err != nil {
				return nil, layer, fmt.Errorf("fleet: hashing shard request: %w", err)
			}
		}
		runs = append(runs, &shardRun{
			shard: sh,
			call: func(ctx context.Context, c *client.Client) (journalRecord, error) {
				resp, err := c.DSE(ctx, sreq)
				return journalRecord{DSE: resp}, err
			},
			route: routes[i],
			hash:  hash,
		})
	}
	return runs, layer, nil
}

// overCap reports whether some shard spans more raw designs than a
// server's per-request cap, given inner raw designs per (pe, p1) cell.
func overCap(shards []dse.Shard, inner int64) bool {
	for _, sh := range shards {
		if inner*int64(len(sh.PEs)*len(sh.P1)) > serve.MaxDSEGrid {
			return true
		}
	}
	return false
}

// hostSlots caps one sweep's concurrent requests per host at
// InflightPerNode. Every sweep (DSE or fusion) makes its own.
type hostSlots map[string]chan struct{}

func newHostSlots(hosts []string, n int) hostSlots {
	s := make(hostSlots, len(hosts))
	for _, h := range hosts {
		s[h] = make(chan struct{}, n)
	}
	return s
}

// acquire waits for a free slot on host; false means ctx ended first.
func (s hostSlots) acquire(ctx context.Context, host string) bool {
	select {
	case s[host] <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s hostSlots) release(host string) { <-s[host] }

func (s hostSlots) full(host string) bool { return len(s[host]) >= cap(s[host]) }

// runShard walks the shard's failover route until a result is accepted
// or the attempt budget runs out.
func (sw *sweep) runShard(sr *shardRun) {
	defer sw.wg.Done()
	budget := sw.f.opts.Rounds * len(sr.route)
	var lastErr error
	for n := 0; n < budget; n++ {
		if sw.ctx.Err() != nil || sr.ctx.Err() != nil {
			return
		}
		host, wrapped := sr.nextHost(sw.f)
		if wrapped && n > 0 {
			// Every node has been tried this round; back off before the
			// next wrap so a fully-open ring doesn't spin.
			if !sleepCtx(sr.ctx, time.Duration(n)*25*time.Millisecond) {
				return
			}
		}
		err := sw.attempt(sr, host, false)
		if err == nil || sr.ctx.Err() != nil {
			return
		}
		if refused(err) {
			sw.failed(fmt.Errorf("fleet: %s shard %d/%d refused by %s: %w",
				sw.kind, sr.shard.Index, sr.shard.Of, host, err))
			return
		}
		lastErr = err
		sw.noteRedispatch(sr, host, err)
	}
	sw.failed(fmt.Errorf("fleet: %s shard %d/%d failed after %d attempts: %w",
		sw.kind, sr.shard.Index, sr.shard.Of, budget, lastErr))
}

// failed ends the sweep with err; the first failure wins.
func (sw *sweep) failed(err error) {
	sw.fail.Do(func() {
		sw.mu.Lock()
		sw.err = err
		sw.mu.Unlock()
		close(sw.failCh)
	})
}

// refused reports a node's hard refusal: a 4xx other than 408 and 429
// is the request's fault, not the node's, so every node would refuse it
// the same way and the sweep fails at once. 408 and 429 stay retryable:
// another node may have capacity.
func refused(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500 &&
		apiErr.Status != http.StatusRequestTimeout && apiErr.Status != http.StatusTooManyRequests
}

// nextHost advances the shard's route cursor, preferring hosts whose
// breaker is not open. A breaker whose cooldown has elapsed reads
// half-open, so a recovered node gets its trial call here. When every
// host is open it returns the cursor host anyway (the fast-fail keeps
// the attempt budget moving). wrapped reports that the cursor passed
// the route start, i.e. a full failover cycle elapsed.
func (sr *shardRun) nextHost(f *Fleet) (host string, wrapped bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := len(sr.route)
	for i := 0; i < n; i++ {
		h := sr.route[(sr.cursor+i)%n]
		if f.clients[h].BreakerState() != client.BreakerOpen {
			wrapped = (sr.cursor+i)%n == 0
			sr.cursor = (sr.cursor + i + 1) % n
			return h, wrapped
		}
	}
	h := sr.route[sr.cursor%n]
	wrapped = sr.cursor%n == 0
	sr.cursor = (sr.cursor + 1) % n
	return h, wrapped
}

// attempt runs one shard request against one host and merges an
// accepted result. A nil return means the shard is settled (success or
// superseded), not necessarily that this attempt's response won.
func (sw *sweep) attempt(sr *shardRun, host string, stolen bool) error {
	if !sw.sem.acquire(sr.ctx, host) {
		return nil
	}
	defer sw.sem.release(host)

	sr.mu.Lock()
	id := sr.nextID
	sr.nextID++
	start := time.Now()
	sr.live[id] = liveAttempt{start: start, host: host}
	sr.mu.Unlock()
	defer func() {
		sr.mu.Lock()
		delete(sr.live, id)
		sr.mu.Unlock()
	}()

	// The shard span starts from sr.ctx (which carries the sweep span)
	// and its context flows into the client, so each HTTP attempt's
	// client.attempt span nests under it and the traceparent header the
	// client injects names this sweep's trace.
	sctx, span := obs.Start(sr.ctx, "fleet.shard",
		obs.Int("shard", sr.shard.Index), obs.String("host", host), obs.Bool("stolen", stolen))
	rec, err := sr.call(sctx, sw.f.clients[host])
	span.SetAttr(obs.Bool("ok", err == nil))
	span.End()
	if err != nil {
		if sr.ctx.Err() != nil {
			return nil // cancelled: another attempt already settled the shard
		}
		sw.f.mu.Lock()
		sw.f.perNode[host].Errors++
		sw.f.mu.Unlock()
		return err
	}
	rec.Host, rec.Stolen = host, stolen
	sw.accept(sr, rec, false, time.Since(start))
	return nil
}

// accept settles a shard with one answer exactly once; late duplicates
// from stolen or raced attempts are counted and dropped. With
// checkpointing on, a dispatched answer is appended and fsync'd *before*
// the shard is marked done — a coordinator killed at any instant either
// has the shard durable or will re-dispatch it, never neither. A
// replayed answer, restored from the journal before dispatch, records
// no latency sample, so the straggler watchdog's median only reflects
// shards that actually ran in this process.
func (sw *sweep) accept(sr *shardRun, rec journalRecord, replayed bool, d time.Duration) {
	sw.mu.Lock()
	if sr.done {
		sw.d.Discarded++
		sw.f.mu.Lock()
		sw.f.stats.Discarded++
		sw.f.mu.Unlock()
		sw.mu.Unlock()
		return
	}
	if replayed {
		sw.d.Replayed++
	} else {
		if sw.jnl != nil {
			rec.Shard, rec.Of, rec.Hash = sr.shard.Index, len(sw.shards), sr.hash
			if err := sw.jnl.append(rec); err != nil {
				// Degrade, don't fail the sweep: the result still merges, a
				// later resume just re-dispatches this shard.
				sw.d.JournalErrors++
				if sp := obs.SpanFrom(sw.ctx); sp != nil {
					sp.Event("fleet.journal_error",
						obs.Int("shard", sr.shard.Index), obs.String("error", err.Error()))
				}
			}
		}
		sw.latencies = append(sw.latencies, d)
		sw.f.mu.Lock()
		sw.f.perNode[rec.Host].Shards++
		sw.f.mu.Unlock()
	}
	sr.done = true
	sw.merge(&rec)
	sw.completed++
	last := sw.completed == len(sw.shards)
	sw.mu.Unlock()

	sr.cancel() // abort the losing attempt, if one is in flight
	if cb := sw.f.opts.OnShard; cb != nil {
		cb(ShardResult{Shard: sr.shard, Host: rec.Host, Stolen: rec.Stolen, Replayed: replayed,
			Resp: rec.DSE, Fusion: rec.Fusion})
	}
	if last {
		close(sw.doneCh)
	}
}

func (sw *sweep) noteRedispatch(sr *shardRun, host string, err error) {
	sw.mu.Lock()
	sw.d.Redispatched++
	sw.mu.Unlock()
	sw.f.mu.Lock()
	sw.f.stats.Redispatched++
	sw.f.mu.Unlock()
	if sp := obs.SpanFrom(sw.ctx); sp != nil {
		sp.Event("fleet.redispatch", obs.Int("shard", sr.shard.Index),
			obs.String("host", host), obs.String("error", err.Error()))
	}
}

// watchdog periodically compares each running attempt's age against the
// median completed-shard latency and steals the slowest shard onto an
// idle healthy node when it falls StragglerFactor behind.
func (sw *sweep) watchdog() {
	t := time.NewTicker(sw.f.opts.WatchTick)
	defer t.Stop()
	for {
		select {
		case <-sw.ctx.Done():
			return
		case <-sw.doneCh:
			return
		case <-t.C:
		}
		med := sw.medianLatency()
		if med <= 0 {
			continue // nothing completed yet: no baseline to judge by
		}
		cut := time.Duration(sw.f.opts.StragglerFactor * float64(med))
		if cut < sw.f.opts.StragglerMin {
			cut = sw.f.opts.StragglerMin
		}
		now := time.Now()
		for _, sr := range sw.shards {
			if host, ok := sw.stragglerTarget(sr, now, cut); ok {
				sw.mu.Lock()
				sw.d.Stolen++
				sw.mu.Unlock()
				sw.f.mu.Lock()
				sw.f.stats.Stolen++
				sw.f.mu.Unlock()
				if sp := obs.SpanFrom(sw.ctx); sp != nil {
					sp.Event("fleet.steal", obs.Int("shard", sr.shard.Index), obs.String("host", host))
				}
				sw.wg.Add(1)
				go func(sr *shardRun, host string) {
					defer sw.wg.Done()
					sw.attempt(sr, host, true)
				}(sr, host)
			}
		}
	}
}

// stragglerTarget decides whether sr's sole running attempt is overdue
// and picks the node to steal it onto: the next host on sr's failover
// route whose breaker is not open, not already running this shard, and
// has a free slot. Each shard is stolen at most once.
func (sw *sweep) stragglerTarget(sr *shardRun, now time.Time, cut time.Duration) (string, bool) {
	sw.mu.Lock()
	done := sr.done
	sw.mu.Unlock()
	if done {
		return "", false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.stole || len(sr.live) != 1 {
		return "", false
	}
	var running liveAttempt
	for _, a := range sr.live {
		running = a
	}
	if now.Sub(running.start) < cut {
		return "", false
	}
	busy := running.host
	for i := 0; i < len(sr.route); i++ {
		h := sr.route[(sr.cursor+i)%len(sr.route)]
		if h == busy {
			continue
		}
		if sw.f.clients[h].BreakerState() == client.BreakerOpen || sw.sem.full(h) {
			continue
		}
		sr.stole = true
		return h, true
	}
	return "", false
}

func (sw *sweep) medianLatency() time.Duration {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	n := len(sw.latencies)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), sw.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n/2]
}

func sortedDedup(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
