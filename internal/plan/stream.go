package plan

// This file is the session API's streaming front door: Session.Stream
// opens the session's table as an append-able source, and
// Streaming.Subscribe registers planner-built queries as continuous
// queries. It is the layer between internal/stream (the append log and
// incremental merge state) and the execution substrate: Subscribe plans
// the delta program exactly like Exec would — same candidates, same
// per-switch sizing at the session's fabric width — then admits it on
// the fabric through the existing serve admission and holds the
// lease(s) for the subscription's lifetime, so the standing program
// keeps its switch state across deltas (the DISTINCT cache, TOP N
// minima and GROUP BY maxima it warms on early deltas keep pruning the
// later ones). Each committed delta batch then runs through the compiled
// engine — engine.ExecSharded across the fabric when Switches > 1 —
// against only the delta, and the result folds into the standing
// result.
//
// Two deliberate deviations from the one-shot paths:
//
//   - HAVING deltas plan and execute as GROUP BY SUM: the sketch path's
//     candidates-only output cannot be merged incrementally (a key may
//     cross the threshold only in aggregate), so the subscription keeps
//     the full per-key sum map and applies the threshold at the
//     standing result.
//   - JOIN programs reset at each delta: the build side is the delta
//     itself, so the Bloom filters must retrain; the lease is still
//     held across deltas (the switch resources stay reserved for the
//     standing query).
//
// Failure handling (§7.2): a switch death never breaks a subscription —
// the master's merge state is the exactness backstop. A single-switch
// subscription whose switch dies is re-placed on the least-loaded
// survivor before its next delta, warm-rebuilding the replacement
// program from the standing result for the monotone kinds
// (engine.WarmPruner); a death in the middle of a delta discards that
// attempt and redoes the delta (bounded, then exact direct) because
// register state absorbed by a drained program dies with the switch. A
// sharded subscription hands engine.ExecSharded a Failover hook that
// re-places the dead shard the same way. When no switch can host the
// program right now, the delta (alone) runs exact and unpruned and the
// next delta retries — continuous-query results stay bit-identical to a
// from-scratch run throughout.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/fabric"
	"cheetah/internal/obs"
	"cheetah/internal/prune"
	"cheetah/internal/serve"
	"cheetah/internal/stream"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// StreamOptions configures a streaming handle.
type StreamOptions struct {
	// Backlog bounds the unprocessed rows buffered ahead of the slowest
	// subscription (0 = unbounded).
	Backlog int
	// Shed makes over-backlog appends fail fast with stream.ErrBacklog
	// instead of blocking until subscriptions drain.
	Shed bool
	// QueueLimit caps each switch's admission wait queue for continuous
	// query placement (0 = unbounded).
	QueueLimit int
}

// Streaming is a live streaming handle over the session's table: an
// append log plus a switch fabric hosting the standing programs of its
// continuous queries. All methods are safe for concurrent use.
type Streaming struct {
	s   *Session
	ing *stream.Ingestor
	fab *fabric.Fabric

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	closed bool
	once   sync.Once
}

// Stream opens the session's table as a streaming source. The handle
// closes when ctx is done (or on Close); appends and new subscriptions
// then fail, standing subscriptions drain and release their programs.
func (s *Session) Stream(ctx context.Context, opts StreamOptions) (*Streaming, error) {
	pol := stream.Block
	if opts.Shed {
		pol = stream.Shed
	}
	ing, err := stream.NewIngestor(s.table, stream.Config{Backlog: opts.Backlog, OnFull: pol})
	if err != nil {
		return nil, err
	}
	fab, err := fabric.New(fabric.Options{
		Switches:   s.opts.Switches,
		Model:      s.opts.Model,
		QueueLimit: opts.QueueLimit,
		Metrics:    s.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	st := &Streaming{s: s, ing: ing, fab: fab, subs: make(map[*Subscription]struct{})}
	if err := s.addChild(st); err != nil {
		fab.Close()
		ing.Close()
		return nil, err
	}
	if ctx != nil {
		context.AfterFunc(ctx, st.Close)
	}
	return st, nil
}

// Session returns the streaming handle's session.
func (st *Streaming) Session() *Session { return st.s }

// Ingest returns the underlying append log, for direct snapshot and
// stats access.
func (st *Streaming) Ingest() *stream.Ingestor { return st.ing }

// Append commits one row (values in schema order).
func (st *Streaming) Append(vals ...any) error { return st.ing.Append(vals...) }

// AppendBatch atomically commits every row of src.
func (st *Streaming) AppendBatch(src *table.Table) error { return st.ing.AppendBatch(src) }

// Version returns the committed row count (the snapshot version).
func (st *Streaming) Version() uint64 { return st.ing.Version() }

// Stats returns each switch's admission counters — the standing-
// program occupancy of the fabric, indexed by switch.
func (st *Streaming) Stats() []serve.Counters { return st.fab.Stats() }

// Fabric returns the streaming handle's switch fabric, for failure-
// lifecycle control (Fail/Restore/Add) and per-switch access.
func (st *Streaming) Fabric() *fabric.Fabric { return st.fab }

// Subscription is one continuous query registered through the session:
// the stream-layer subscription plus its plan and held switch
// resources. Results/Updates/Wait/Flush are promoted from the embedded
// subscription.
type Subscription struct {
	*stream.Subscription
	st   *Streaming
	plan *Plan

	mu sync.Mutex
	// placements are the fabric holds backing the standing program: one
	// for a single-switch placement, one per switch for scatter/gather,
	// nil for a direct (unpruned) subscription. Entries move between
	// switches when re-placement routes around a failed switch.
	placements []*fabric.Placement
	// swIdx is the placed switch for single-switch placements (-1 for
	// sharded and direct subscriptions).
	swIdx    int
	replaced int
	traffic  engine.Traffic
	skipped  engine.SkipStats
	// lastTrace is the most recently completed delta's lifecycle trace
	// (nil before the first delta, or with tracing disabled). Traces are
	// handed out to callers, so they are never pooled back — dropped
	// references are garbage-collected.
	lastTrace *obs.Trace
	once      sync.Once
}

// Trace returns the lifecycle trace of the most recently completed
// delta execution: the delta span plus the engine stages that ran
// beneath it (encode/prune/merge, per-shard passes, failovers). Nil
// before the first delta completes or when the session disabled
// tracing.
func (ss *Subscription) Trace() *obs.Trace {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastTrace
}

// tracedDelta wraps a delta executor body so every delta runs under its
// own trace: a top-level delta span brackets the whole execution
// (redos included) and the completed trace publishes via Trace.
func (ss *Subscription) tracedDelta(inner func(dq *engine.Query, standing func() *engine.Result, tr *obs.Trace) (*engine.Result, error)) stream.DeltaExec {
	return func(dq *engine.Query, standing func() *engine.Result) (*engine.Result, error) {
		clock := engine.StartClock()
		tr := ss.st.s.newTrace()
		tm := tr.Begin(obs.StageDelta, -1)
		res, err := inner(dq, standing, tr)
		if err != nil {
			tm.EndNote("error: " + err.Error())
		} else {
			tm.End(int64(dq.Table.NumRows()), int64(len(res.Rows)))
		}
		// Delta freshness: how long a committed batch took to fold into
		// the standing result (redos and failover re-placements included).
		ss.st.fab.Metrics().Histogram("delta_latency").Observe(clock.Elapsed().Nanoseconds())
		ss.mu.Lock()
		ss.lastTrace = tr
		ss.mu.Unlock()
		return res, err
	}
}

// Plan returns the plan backing the subscription's delta executions.
// For HAVING subscriptions it is the GROUP BY SUM delta plan (see the
// package comment).
func (ss *Subscription) Plan() *Plan { return ss.plan }

// Switch returns the fabric switch a single-switch subscription is
// currently placed on, or -1 (sharded subscriptions own a program on
// every switch; direct subscriptions own none). The value changes when
// re-placement moves the standing program off a failed switch.
func (ss *Subscription) Switch() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.swIdx
}

// Replaced returns how many times the subscription's standing
// program(s) have been re-placed after a switch failure.
func (ss *Subscription) Replaced() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.replaced
}

// Traffic returns the cumulative dataplane traffic of the
// subscription's delta executions.
func (ss *Subscription) Traffic() engine.Traffic {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.traffic
}

func (ss *Subscription) addTraffic(t engine.Traffic) {
	ss.mu.Lock()
	ss.traffic.EntriesSent += t.EntriesSent
	ss.traffic.Forwarded += t.Forwarded
	ss.traffic.SecondPassSent += t.SecondPassSent
	ss.traffic.MasterProcessed += t.MasterProcessed
	ss.mu.Unlock()
}

// Skipped returns the cumulative block-skip statistics of the
// subscription's delta executions: blocks (and their rows) the skip
// index proved irrelevant, so the delta never read or encoded them.
// Zero when the plan did not enable skipping (Plan().Skip).
func (ss *Subscription) Skipped() engine.SkipStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.skipped
}

func (ss *Subscription) addSkipped(st engine.SkipStats) {
	ss.mu.Lock()
	ss.skipped.Add(st)
	ss.mu.Unlock()
}

// Close deregisters the continuous query: the stream subscription
// drains its in-flight delta, then the standing program's switch
// resources release. Idempotent.
func (ss *Subscription) Close() {
	ss.once.Do(func() {
		ss.Subscription.Close()
		ss.mu.Lock()
		placements := ss.placements
		ss.placements = nil
		ss.mu.Unlock()
		for _, pl := range placements {
			pl.Release()
		}
		ss.st.mu.Lock()
		delete(ss.st.subs, ss)
		ss.st.mu.Unlock()
	})
}

// Subscribe registers q as a continuous query: the planner picks and
// sizes the pruning program (per switch at the session's fabric
// width), the fabric admits it — a standing program holds its switch
// state across deltas — and every committed delta batch executes
// incrementally into a standing result that always equals a
// from-scratch run over the full committed prefix. Queries no switch
// can host (and placements shed by the queue limit) run their deltas
// as exact direct executions.
func (st *Streaming) Subscribe(ctx context.Context, q *engine.Query) (*Subscription, error) {
	return st.subscribe(ctx, q, 0, 0)
}

// SubscribeWindow is Subscribe for the windowed variants of the
// aggregate kinds (TOP N, GROUP BY MAX/SUM, HAVING): the standing
// result covers the most recently completed window of `window` rows,
// sliding by `slide` rows with the oldest rows retracted. window ==
// slide is a tumbling window; window must be a multiple of slide.
func (st *Streaming) SubscribeWindow(ctx context.Context, q *engine.Query, window, slide int) (*Subscription, error) {
	return st.subscribe(ctx, q, window, slide)
}

func (st *Streaming) subscribe(ctx context.Context, q *engine.Query, window, slide int) (*Subscription, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("plan: streaming handle is closed")
	}
	if q == nil {
		return nil, fmt.Errorf("plan: Subscribe needs a query")
	}
	// HAVING deltas aggregate full per-key sums (GROUP BY SUM program);
	// the threshold applies at the standing result.
	pq := q
	if q.Kind == engine.KindHaving {
		cp := *q
		cp.Kind = engine.KindGroupBySum
		pq = &cp
	}
	p, err := st.s.planFor(pq, st.s.opts.Switches)
	if err != nil {
		return nil, err
	}
	if q.Kind == engine.KindHaving && p.Mode != ModeDirect {
		p.Reason += "; continuous having keeps exact per-key sums (threshold at the standing result)"
	}
	// Streaming always executes deltas in-process through the fabric;
	// the cluster transport has no incremental path.
	if p.Mode == ModeCluster {
		p.Mode = ModeCheetah
		p.Reason += "; streaming executes in-process (cluster transport has no incremental path)"
	}
	ss := &Subscription{st: st, plan: p, swIdx: -1}
	// windowed deltas must not carry switch state across executions: a
	// value pruned by a cache warmed OUTSIDE the window could be part of
	// the window's true result, so every windowed delta exec resets the
	// program(s) first.
	windowed := window != 0 || slide != 0
	var exec stream.DeltaExec
	switch {
	case p.Mode == ModeDirect:
		exec = ss.directExec()
	case p.Switches > 1:
		exec, err = st.shardedExec(ctx, ss, p, windowed)
	default:
		exec, err = st.placedExec(ctx, ss, p, windowed)
	}
	if err != nil {
		return nil, err
	}
	sub, err := st.ing.Subscribe(q, stream.SubOptions{Exec: exec, Window: window, Slide: slide})
	if err != nil {
		for _, pl := range ss.placements {
			pl.Release()
		}
		return nil, err
	}
	ss.Subscription = sub
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		ss.Close()
		return nil, fmt.Errorf("plan: streaming handle is closed")
	}
	st.subs[ss] = struct{}{}
	st.mu.Unlock()
	return ss, nil
}

// directExec is the delta executor for unpruned subscriptions: exact
// direct execution of each delta, still consulting the skip index when
// the plan enabled skipping (skipping is storage-side, independent of
// whether a switch program runs).
func (ss *Subscription) directExec() stream.DeltaExec {
	return ss.tracedDelta(func(dq *engine.Query, _ func() *engine.Result, tr *obs.Trace) (*engine.Result, error) {
		tm := tr.Begin(obs.StageScan, -1)
		start := tr.Elapsed()
		if !ss.plan.Skip {
			res, err := engine.ExecDirect(dq)
			if err == nil {
				tm.End(int64(dq.Table.NumRows()), int64(len(res.Rows)))
			}
			return res, err
		}
		res, st, err := engine.ExecDirectSkip(dq)
		if err == nil {
			ss.addSkipped(st)
			tm.End(int64(dq.Table.NumRows()), int64(len(res.Rows)))
			addSkipSpan(tr, start, st)
		}
		return res, err
	})
}

// fallbackDirect reports whether a fabric admission failure means "run
// the deltas unpruned" rather than "fail the subscribe".
// serve.ErrFailed is in the list because a fully dead fabric is exactly
// the §7.2 degraded case: the servers keep results exact on their own.
func fallbackDirect(err error) bool {
	return errors.Is(err, serve.ErrNeverFits) ||
		errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, serve.ErrClosed) ||
		errors.Is(err, serve.ErrFailed)
}

// maxDeltaRedos bounds how many times one delta execution is redone
// after mid-delta switch deaths before it degrades to exact direct
// execution for that delta.
const maxDeltaRedos = 3

// replacement builds the successor program for a standing placement
// whose switch died: a fresh instance of the plan's program,
// warm-rebuilt from the standing result for the monotone kinds (an
// unwindowed standing result is a faithful summary of everything the
// lost register state could prune with), admitted non-blocking on the
// least-loaded survivor. Windowed subscriptions always re-admit cold —
// their programs reset every delta anyway.
func (st *Streaming) replacement(p *Plan, dq *engine.Query, standing func() *engine.Result, windowed bool) (*fabric.Placement, prune.Pruner, error) {
	pruner, err := p.NewPruner()
	if err != nil {
		return nil, nil, err
	}
	if !windowed {
		if _, err := engine.WarmPruner(dq, p.Seed, standing(), pruner); err != nil {
			return nil, nil, err
		}
	}
	placement, err := st.fab.TryAdmit(pruner)
	if err != nil {
		return nil, nil, err
	}
	return placement, pruner, nil
}

// noteReplaced retires a dead placement: the failed switch's counters
// record the migration and the (already revoked) lease releases.
func (st *Streaming) noteReplaced(old *fabric.Placement) {
	st.fab.Server(old.Switch).NoteReplaced(old.Tenant())
	old.Release()
}

// placedExec admits one standing program on the least-loaded switch and
// returns the delta executor running through its lease. A dead switch
// is detected before (and after) every delta: the program is re-placed
// on a survivor — warm for the monotone kinds — and a delta whose
// execution crossed the death is redone, because drained register state
// absorbed before the death is lost with the switch.
func (st *Streaming) placedExec(ctx context.Context, ss *Subscription, p *Plan, windowed bool) (stream.DeltaExec, error) {
	pruner, err := p.NewPruner()
	if err != nil {
		return nil, err
	}
	placement, err := st.fab.Admit(ctx, pruner)
	if err != nil {
		if fallbackDirect(err) {
			p.Mode = ModeDirect
			p.Reason = fmt.Sprintf("streaming fallback: %v", err)
			return ss.directExec(), nil
		}
		return nil, err
	}
	ss.mu.Lock()
	ss.placements = []*fabric.Placement{placement}
	ss.swIdx = placement.Switch
	ss.mu.Unlock()
	workers, seed := p.Workers, p.Seed
	// cur/curPruner are only touched by the subscription's pump
	// goroutine (one delta executes at a time); ss.placements mirrors
	// cur under ss.mu for Close and Switch.
	cur, curPruner := placement, pruner
	return ss.tracedDelta(func(dq *engine.Query, standing func() *engine.Result, tr *obs.Trace) (*engine.Result, error) {
		for redo := 0; ; redo++ {
			if cur.Err() != nil {
				npl, npr, rerr := st.replacement(p, dq, standing, windowed)
				if rerr != nil {
					// No survivor can host the program right now: this
					// delta (alone) runs exact and unpruned; the next
					// delta retries re-placement.
					return engine.ExecDirect(dq)
				}
				old := cur
				cur, curPruner = npl, npr
				ss.mu.Lock()
				ss.placements = []*fabric.Placement{npl}
				ss.swIdx = npl.Switch
				ss.replaced++
				ss.mu.Unlock()
				st.noteReplaced(old)
			}
			resetForDelta([]prune.Pruner{curPruner}, windowed)
			passStart := tr.Elapsed()
			run, err := engine.ExecCheetah(dq, engine.CheetahOptions{
				Workers: workers, Pruner: curPruner, Seed: seed, Flow: cur.Lease,
				Skip: p.Skip, Trace: tr, TraceSwitch: cur.Switch,
			})
			if err != nil {
				return nil, err
			}
			if cur.Err() == nil {
				addSkipSpan(tr, passStart, run.Skipped)
				ss.addTraffic(run.Traffic)
				ss.addSkipped(run.Skipped)
				return run.Result, nil
			}
			// The switch died while the delta was streaming through it:
			// rows absorbed into (drained) register state before the death
			// are gone, so the attempt's result cannot be trusted — discard
			// it and redo the delta, degrading to exact direct execution
			// when deaths keep chasing the re-placements.
			tr.Add(obs.Span{
				Stage: obs.StageFailover, Switch: cur.Switch, Attempt: redo,
				Start: passStart, Dur: tr.Elapsed() - passStart,
				Note: "pass discarded: switch died mid-delta",
			})
			if redo >= maxDeltaRedos {
				return engine.ExecDirect(dq)
			}
		}
	}), nil
}

// shardedExec admits one standing program per switch and returns the
// delta executor scattering each delta across the fabric. Shard
// failover is delegated to engine.ExecSharded: the Failover hook
// re-places a dead shard's program on a surviving switch (warm for the
// monotone kinds) and the engine redoes that shard's pass; when no
// survivor has room the engine falls back to master-side execution of
// the shard — exact either way.
func (st *Streaming) shardedExec(ctx context.Context, ss *Subscription, p *Plan, windowed bool) (stream.DeltaExec, error) {
	pruners, err := p.NewShardPruners()
	if err != nil {
		return nil, err
	}
	progs := make([]switchsim.Program, len(pruners))
	for i, pr := range pruners {
		progs[i] = pr
	}
	placements, err := st.fab.AdmitShards(ctx, progs)
	if err != nil {
		if fallbackDirect(err) {
			p.Mode = ModeDirect
			p.Reason = fmt.Sprintf("streaming fallback: %v", err)
			return ss.directExec(), nil
		}
		return nil, err
	}
	ss.mu.Lock()
	ss.placements = placements
	ss.mu.Unlock()
	flows := make([]engine.Flow, len(placements))
	for i, pl := range placements {
		flows[i] = pl
	}
	shards, workers, seed := p.Switches, p.Workers, p.Seed
	return ss.tracedDelta(func(dq *engine.Query, standing func() *engine.Result, tr *obs.Trace) (*engine.Result, error) {
		// The hook runs on the engine's per-shard goroutines; distinct
		// shards re-place concurrently, so the shared slices and the
		// subscription's placement list update under ss.mu.
		failover := func(shard, attempt int) (prune.Pruner, engine.Flow, error) {
			npl, npr, rerr := st.replacement(p, dq, standing, windowed)
			if rerr != nil {
				return nil, nil, rerr
			}
			ss.mu.Lock()
			old := ss.placements[shard]
			ss.placements[shard] = npl
			pruners[shard] = npr
			flows[shard] = npl
			ss.replaced++
			ss.mu.Unlock()
			st.noteReplaced(old)
			return npr, npl, nil
		}
		ss.mu.Lock()
		curPruners := append([]prune.Pruner(nil), pruners...)
		curFlows := append([]engine.Flow(nil), flows...)
		ss.mu.Unlock()
		resetForDelta(curPruners, windowed)
		passStart := tr.Elapsed()
		run, err := engine.ExecSharded(dq, engine.ShardedOptions{
			Shards: shards, Workers: workers, Seed: seed,
			Pruners: curPruners, Flows: curFlows, Failover: failover,
			Skip: p.Skip, Trace: tr,
		})
		if err != nil {
			return nil, err
		}
		addSkipSpan(tr, passStart, run.Skipped)
		ss.addTraffic(run.Traffic)
		ss.addSkipped(run.Skipped)
		return run.Result, nil
	}), nil
}

// resetForDelta clears switch state before a delta execution where
// reuse would be wrong: always for JOIN (the delta is the build side —
// the filters must retrain), and for every program of a windowed
// subscription (state warmed outside the window must not prune rows
// inside it). Unwindowed single-pass programs deliberately keep their
// state — that is the standing-program payoff.
func resetForDelta(pruners []prune.Pruner, windowed bool) {
	for _, pr := range pruners {
		if _, isJoin := pr.(*prune.Join); isJoin || windowed {
			pr.Reset()
		}
	}
}

// Close shuts the streaming handle down: appends and new subscriptions
// fail, every continuous query drains its in-flight delta and releases
// its standing program, and the fabric closes. Idempotent.
func (st *Streaming) Close() {
	st.once.Do(func() {
		st.mu.Lock()
		st.closed = true
		subs := make([]*Subscription, 0, len(st.subs))
		for ss := range st.subs {
			subs = append(subs, ss)
		}
		st.mu.Unlock()
		st.ing.Close()
		for _, ss := range subs {
			ss.Close()
		}
		st.fab.Close()
		st.s.removeChild(st)
	})
}
