package serve

import (
	"context"
	"time"

	"repro/internal/obs"
)

// One pipeline serves every endpoint that computes: /v1/analyze, each
// single and each profile group of /v1/analyze/batch, /v1/dse and
// /v1/fusion. A task names the result-cache keys it answers and the
// computation that produces their values; run takes it through
//
//   - the fast path: unless the task is no_cache, each key is probed
//     in the result cache (the cache stage; a serve.cache span with
//     hit=true), and hits are answered without touching the pool;
//   - admission: the remaining keys are shed when the deadline cannot
//     cover the expected queue wait plus the p50 compute, or else
//     queued as one pool job (the serve.queue span and the queue
//     stage) that checks the context when it is dequeued;
//   - compute: on the worker, through the cache's singleflight unless
//     the task is no_cache, under one serve.compute span and one timer
//     that feeds the compute stage and the shed p50 tracker.

// task is one unit of pooled work.
type task struct {
	keys []Key
	// noCache computes on the pool with no cache read, write or
	// coalescing.
	noCache bool
	// compute produces the answers of the missed keys (indexes into
	// keys), in order. It runs on a worker under the serve.compute span,
	// which it labels.
	compute func(ctx context.Context, miss []int) []answer
}

// answer is the pipeline's outcome for one key. run hands out val as
// the request's own copy of the response.
type answer struct {
	val    any
	cached bool
	err    error
}

// run answers every key of t: hits on the fast path, the rest from one
// admitted pool job.
func (s *Server) run(ctx context.Context, t task) []answer {
	out := make([]answer, len(t.keys))
	var miss []int
	for i, k := range t.keys {
		if !t.noCache {
			lookup := time.Now()
			v, ok := s.cache.Get(k)
			s.stageSeconds.With("cache").Observe(time.Since(lookup).Seconds())
			if ok {
				// The hit is recorded on its own child span: batch items
				// run concurrently under one shared request span, and a
				// span does not take concurrent Events.
				_, hspan := obs.Start(ctx, "serve.cache", obs.Bool("hit", true))
				hspan.Event("result_cache.hit")
				hspan.End()
				out[i] = answer{val: v, cached: true}
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) > 0 {
		got, err := s.admit(ctx, t, miss)
		for j, i := range miss {
			if err != nil {
				out[i].err = err
			} else {
				out[i] = got[j]
			}
		}
	}
	for i, a := range out {
		if a.err == nil {
			out[i].val = a.val.(delivery).delivered(a.cached)
		}
	}
	return out
}

// delivery is a response the result cache shares between requests;
// delivered returns the copy one request receives, with its own Cached
// flag.
type delivery interface{ delivered(cached bool) any }

func (r AnalyzeResponse) delivered(cached bool) any { r.Cached = cached; return &r }
func (r DSEResponse) delivered(cached bool) any     { r.Cached = cached; return &r }
func (r FusionResponse) delivered(cached bool) any  { r.Cached = cached; return &r }

// admit computes t's missed keys as one pool job and waits for the
// answers. A request whose remaining deadline cannot cover the expected
// queue wait plus the observed median compute is shed before it takes
// a queue slot. The queue span and stage cover submit to dequeue,
// rejected submissions included: saturation is when the queue
// histogram matters. A job whose caller has already gone does not burn
// its worker.
func (s *Server) admit(ctx context.Context, t task, miss []int) ([]answer, error) {
	if dl, ok := ctx.Deadline(); ok {
		if err := s.shedCheck(time.Until(dl)); err != nil {
			return nil, err
		}
	}
	type result struct {
		answers []answer
		err     error
	}
	ch := make(chan result, 1)
	_, qspan := obs.Start(ctx, "serve.queue")
	submitted := time.Now()
	err := s.pool.Submit(func() {
		s.dequeued(qspan, submitted, nil)
		if err := ctx.Err(); err != nil {
			ch <- result{err: err}
			return
		}
		ch <- result{answers: s.computeMisses(ctx, t, miss)}
	})
	if err != nil {
		s.dequeued(qspan, submitted, err)
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r := <-ch:
		return r.answers, r.err
	}
}

// dequeued ends a job's queue span and observes its queue stage; err
// is the submission's rejection, if any.
func (s *Server) dequeued(qspan *obs.Span, submitted time.Time, err error) {
	if err != nil {
		qspan.SetAttr(obs.String("error", err.Error()))
	}
	qspan.End()
	s.stageSeconds.With("queue").Observe(time.Since(submitted).Seconds())
}

// computeMisses runs on a worker. A no_cache task computes directly. A
// single miss computes inside the cache's singleflight, so identical
// concurrent requests compute once. Several misses (a batch's profile
// group) compute in one call, and each answer is then stored under its
// own key, so later identical requests hit as if computed alone.
func (s *Server) computeMisses(ctx context.Context, t task, miss []int) []answer {
	if t.noCache {
		return s.compute(ctx, t, miss)
	}
	ctx, span := obs.Start(ctx, "serve.cache")
	defer span.End()
	if len(miss) == 1 {
		v, cached, err := s.cache.Do(t.keys[miss[0]], func() (any, error) {
			a := s.compute(ctx, t, miss)[0]
			return a.val, a.err
		}, nil)
		span.SetAttr(obs.Bool("hit", cached))
		return []answer{{val: v, cached: cached, err: err}}
	}
	span.SetAttr(obs.Bool("hit", false))
	out := s.compute(ctx, t, miss)
	for j, i := range miss {
		if out[j].err != nil {
			continue
		}
		val := out[j].val
		if v, cached, err := s.cache.Do(t.keys[i], func() (any, error) { return val, nil }, nil); err == nil {
			out[j] = answer{val: v, cached: cached}
		}
	}
	return out
}

// compute runs t's computation under the serve.compute span and the
// one compute timer: every pooled compute, of every endpoint, feeds
// the compute stage and the p50 tracker behind shedding and
// Retry-After.
func (s *Server) compute(ctx context.Context, t task, miss []int) []answer {
	start := time.Now()
	ctx, span := obs.Start(ctx, "serve.compute")
	out := t.compute(ctx, miss)
	span.End()
	d := time.Since(start)
	s.stageSeconds.With("compute").Observe(d.Seconds())
	s.svcTime.Observe(d)
	return out
}
