package main

// The three workloads. Each builds its inputs from the seed, stands the
// program up (setup_s), computes references and runs one unmeasured
// warm-up cycle, then drives a closed loop for the measured time.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

var errMismatch = errors.New("result mismatch")

// sizes are a workload's input sizes at scale 1.
type sizes struct {
	visits, rankings, urls int
}

func (s sizes) scaled(f float64) sizes {
	sc := func(n int) int { return max(int(float64(n)*f), 64) }
	return sizes{visits: sc(s.visits), rankings: sc(s.rankings), urls: sc(s.urls)}
}

var (
	wireMixSizes    = sizes{visits: 160_000, rankings: 10_000, urls: 40_000}
	libShardedSizes = sizes{visits: 320_000, rankings: 20_000, urls: 80_000}
	wireStreamSizes = sizes{visits: 50_000, rankings: 2_000, urls: 12_500}
)

const (
	// mixVariants is how many jittered instances of each kind the query
	// cycle holds; references are computed once per distinct query.
	mixVariants  = 2
	mixConns     = 2
	batchRows    = 256
	batchPool    = 64
	probeAppends = 24
	// streamWarmup is the number of unmeasured appends before
	// wire-stream's measured phase (about 2 s at scale 1). It is a count,
	// so the streamed table holds the same number of rows whenever the
	// heap is read after it.
	streamWarmup = 160
)

// env is one stood-up workload.
type env interface {
	// prepare computes references and runs the unmeasured warm-up,
	// whose ops are checked like measured ones and counted in warm.
	prepare(warm *recorder) error
	// measure drives the workload's closed loop while rec is running.
	measure(rec *recorder)
	// verify runs end-of-run checks that need the measured phase done.
	verify(rec *recorder)
	// traced replays the workload with layer spans, and probes any layer
	// the workload does not reach so every per-layer metric is measured.
	traced(t *tracer, until time.Time, rec *recorder) error
	skipBuild() time.Duration
	close()
}

type workloadDef struct {
	name  string
	setup func(c *config) (env, error)
}

var workloads = []workloadDef{
	{"wire-mix", setupWireMix},
	{"lib-sharded", setupLibSharded},
	{"wire-stream", setupWireStream},
}

// tables is the generated input of one workload.
type tables struct {
	p                *pools
	visits, rankings *table.Table
	seed             uint64
	rows             int
	skipBuild        time.Duration
}

// genTables generates visits and rankings and builds both skip indexes
// (the builds are timed on their own for table.skip_build_ms). The
// planner would otherwise build rankings' index on the first JOIN plan,
// outside set-up.
func genTables(sz sizes, seed uint64) (*tables, error) {
	p := newPools(sz.urls)
	visits, err := genVisits(p, sz.visits, seed)
	if err != nil {
		return nil, err
	}
	rankings, err := genRankings(p, sz.rankings, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, t := range []*table.Table{visits, rankings} {
		if err := t.BuildSkipIndex(0); err != nil {
			return nil, err
		}
	}
	return &tables{p: p, visits: visits, rankings: rankings, seed: seed, rows: sz.visits, skipBuild: time.Since(t0)}, nil
}

// regenVisits rebuilds the initial visits table: the base the final
// stream state is recomputed from.
func (t *tables) regenVisits() (*table.Table, error) { return genVisits(t.p, t.rows, t.seed) }

// mixSpecs derives the query cycle's wire specs and engine queries.
func (t *tables) mixSpecs(n int) ([]wire.QuerySpec, []*engine.Query, error) {
	specs := make([]wire.QuerySpec, n)
	qs := make([]*engine.Query, n)
	for i := range n {
		q := mixQuery(t.visits, t.rankings, t.seed, i)
		right := ""
		if q.Right != nil {
			right = "rankings"
		}
		s, err := wire.SpecOf(q, "visits", right)
		if err != nil {
			return nil, nil, err
		}
		specs[i], qs[i] = *s, q
	}
	return specs, qs, nil
}

func references(qs []*engine.Query) ([]digest, error) {
	refs := make([]digest, len(qs))
	for i, q := range qs {
		d, err := reference(q)
		if err != nil {
			return nil, err
		}
		refs[i] = d
	}
	return refs, nil
}

// listen stands up an in-process server over the tables the way cheetahd
// does: 2 switches, one worker, streaming enabled on visits.
func listen(t *tables) (*netserve.Server, error) {
	return netserve.Listen("127.0.0.1:0", netserve.Options{
		Tables:  map[string]*table.Table{"visits": t.visits, "rankings": t.rankings},
		Primary: "visits",
		Plan:    plan.Options{Switches: 2, Workers: 1, Seed: t.seed},
		Stream:  &plan.StreamOptions{},
	})
}

func dial(srv *netserve.Server, n int) ([]*netserve.Client, error) {
	cls := make([]*netserve.Client, n)
	for i := range cls {
		cl, err := netserve.Dial(srv.Addr().String(), fmt.Sprintf("tenant-%d", i))
		if err != nil {
			return nil, err
		}
		cls[i] = cl
	}
	return cls, nil
}

func closeServer(srv *netserve.Server, cls []*netserve.Client) {
	for _, cl := range cls {
		if cl != nil {
			cl.Close()
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
}

// wireQuery runs one one-shot query over TCP and checks it. It returns
// the client-observed latency and the server-side execution wall the
// result reports.
func wireQuery(cl *netserve.Client, spec wire.QuerySpec, ref digest) (lat, server time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := cl.Query(ctx, spec, netserve.QueryOptions{})
	lat = time.Since(t0)
	if err != nil {
		return lat, 0, err
	}
	if digestOf(res.Columns, res.Rows) != ref {
		return lat, 0, fmt.Errorf("%w: %s over the wire", errMismatch, engine.QueryKind(spec.Kind))
	}
	return lat, time.Duration(res.WallNanos), nil
}

// queryRows is the number of input rows a query reads.
func queryRows(q *engine.Query) int {
	n := q.Table.NumRows()
	if q.Right != nil {
		n += q.Right.NumRows()
	}
	return n
}

// record counts one one-shot query op.
func record(rec *recorder, q *engine.Query, lat time.Duration, err error) {
	if err != nil {
		rec.fail(errors.Is(err, errMismatch), err)
		return
	}
	rec.ok([]int{int(q.Kind)}, []time.Duration{lat}, lat, queryRows(q))
}

// ---- wire-mix ----

type wireMix struct {
	t     *tables
	srv   *netserve.Server
	cls   []*netserve.Client
	specs []wire.QuerySpec
	qs    []*engine.Query
	refs  []digest
	rig   *streamRig
}

func setupWireMix(c *config) (env, error) {
	t, err := genTables(wireMixSizes.scaled(c.scale), c.seed)
	if err != nil {
		return nil, err
	}
	w := &wireMix{t: t}
	if w.srv, err = listen(t); err != nil {
		return nil, err
	}
	if w.cls, err = dial(w.srv, mixConns); err != nil {
		w.close()
		return nil, err
	}
	if w.specs, w.qs, err = t.mixSpecs(mixVariants * len(kindNames)); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *wireMix) skipBuild() time.Duration { return w.t.skipBuild }

func (w *wireMix) prepare(warm *recorder) (err error) {
	if w.refs, err = references(w.qs); err != nil {
		return err
	}
	for j, s := range w.specs {
		lat, _, err := wireQuery(w.cls[0], s, w.refs[j])
		record(warm, w.qs[j], lat, err)
	}
	return nil
}

// loop runs the closed loop: each connection sends its next query only
// after the previous answer arrived. The two start half the kinds apart,
// so they begin on different kinds; after that they drift freely.
func (w *wireMix) loop(more func() bool, op func(cl *netserve.Client, j int)) {
	var wg sync.WaitGroup
	for c, cl := range w.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * len(kindNames) / len(w.cls); more(); i++ {
				op(cl, i%len(w.specs))
			}
		}()
	}
	wg.Wait()
}

func (w *wireMix) measure(rec *recorder) {
	w.loop(rec.running, func(cl *netserve.Client, j int) {
		lat, _, err := wireQuery(cl, w.specs[j], w.refs[j])
		record(rec, w.qs[j], lat, err)
	})
}

func (w *wireMix) verify(*recorder) {}

func (w *wireMix) traced(t *tracer, until time.Time, rec *recorder) error {
	rp, err := newReplayer(w.t.visits, w.t.rankings, w.srv.Serving().Fabric(), w.t.seed)
	if err != nil {
		return err
	}
	defer rp.close()
	w.loop(func() bool { return time.Now().Before(until) }, func(cl *netserve.Client, j int) {
		tracedWireOp(t, rp, cl, w.specs[j], w.refs[j], w.qs[j], rec)
	})
	// wire-mix appends nothing; probe the stream layers on its server.
	if w.rig, err = newStreamRig(w.srv, w.t, w.specs[:len(kindNames)]); err != nil {
		return err
	}
	return w.rig.tracedProbe(t, probeAppends, rec)
}

func (w *wireMix) close() {
	if w.rig != nil {
		w.rig.close()
	}
	closeServer(w.srv, w.cls)
}

// tracedWireOp is one traced one-shot query: the client-observed TCP call,
// then the replay of the in-process layer calls it made. The front door's
// own time is the call minus the server's reported execution wall and
// the replayed codec and bind calls.
func tracedWireOp(t *tracer, rp *replayer, cl *netserve.Client, spec wire.QuerySpec, ref digest, q *engine.Query, rec *recorder) {
	kind := kindNames[q.Kind]
	o := t.op("op.wire_query", kind)
	defer o.end()
	var lat, server time.Duration
	var qerr error
	o.call("netserve.query", kind, func() error {
		lat, server, qerr = wireQuery(cl, spec, ref)
		return qerr
	})
	record(rec, q, lat, qerr)
	if qerr != nil {
		return
	}
	frontDoor, err := rp.replay(t, o, spec, ref, false)
	if err != nil {
		rec.fail(errors.Is(err, errMismatch), err)
		return
	}
	t.sample("netserve.self_us", float64(lat-server-frontDoor)/1e3)
}

// ---- lib-sharded ----

type libSharded struct {
	t     *tables
	sess  *plan.Session
	specs []wire.QuerySpec
	qs    []*engine.Query
	refs  []digest
	// probe server, stood up only by the traced run to measure the
	// layers this workload bypasses.
	srv *netserve.Server
	cls []*netserve.Client
	rig *streamRig
}

func setupLibSharded(c *config) (env, error) {
	t, err := genTables(libShardedSizes.scaled(c.scale), c.seed)
	if err != nil {
		return nil, err
	}
	l := &libSharded{t: t}
	if l.sess, err = plan.Open(t.visits, plan.Options{Switches: 2, Workers: 1, Seed: c.seed}); err != nil {
		return nil, err
	}
	if l.specs, l.qs, err = t.mixSpecs(mixVariants * len(kindNames)); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *libSharded) skipBuild() time.Duration { return l.t.skipBuild }

func (l *libSharded) exec(j int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	ex, err := l.sess.Exec(ctx, l.qs[j])
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if digestOf(ex.Result.Columns, ex.Result.Rows) != l.refs[j] {
		return lat, fmt.Errorf("%w: %s through Session.Exec", errMismatch, l.qs[j].Kind)
	}
	return lat, nil
}

func (l *libSharded) prepare(warm *recorder) (err error) {
	if l.refs, err = references(l.qs); err != nil {
		return err
	}
	for j := range l.qs {
		lat, err := l.exec(j)
		record(warm, l.qs[j], lat, err)
	}
	return nil
}

func (l *libSharded) measure(rec *recorder) {
	for j := 0; rec.running(); j++ {
		j := j % len(l.qs)
		lat, err := l.exec(j)
		record(rec, l.qs[j], lat, err)
	}
}

func (l *libSharded) verify(*recorder) {}

func (l *libSharded) traced(t *tracer, until time.Time, rec *recorder) error {
	rp, err := newReplayer(l.t.visits, l.t.rankings, nil, l.t.seed)
	if err != nil {
		return err
	}
	defer rp.close()
	for j := 0; time.Now().Before(until); j++ {
		j := j % len(l.qs)
		kind := kindNames[l.qs[j].Kind]
		o := t.op("op.lib_exec", kind)
		var lat time.Duration
		var xerr error
		o.call("plan.session_exec", kind, func() error { lat, xerr = l.exec(j); return xerr })
		record(rec, l.qs[j], lat, xerr)
		if xerr == nil {
			if _, err := rp.replay(t, o, l.specs[j], l.refs[j], true); err != nil {
				rec.fail(errors.Is(err, errMismatch), err)
			}
		}
		o.end()
	}
	// The library path bypasses the front door and the stream layers:
	// probe them on a server over the same tables, one query cycle and a
	// short append run.
	if l.srv, err = listen(l.t); err != nil {
		return err
	}
	if l.cls, err = dial(l.srv, 1); err != nil {
		return err
	}
	srp, err := newReplayer(l.t.visits, l.t.rankings, l.srv.Serving().Fabric(), l.t.seed)
	if err != nil {
		return err
	}
	defer srp.close()
	for j := range l.specs {
		tracedWireOp(t, srp, l.cls[0], l.specs[j], l.refs[j], l.qs[j], rec)
	}
	if l.rig, err = newStreamRig(l.srv, l.t, l.specs[:len(kindNames)]); err != nil {
		return err
	}
	return l.rig.tracedProbe(t, probeAppends, rec)
}

func (l *libSharded) close() {
	if l.rig != nil {
		l.rig.close()
	}
	closeServer(l.srv, l.cls)
	l.sess.Close()
}

// ---- wire-stream ----

type wireStream struct {
	t   *tables
	srv *netserve.Server
	rig *streamRig
}

func setupWireStream(c *config) (env, error) {
	t, err := genTables(wireStreamSizes.scaled(c.scale), c.seed)
	if err != nil {
		return nil, err
	}
	s := &wireStream{t: t}
	if s.srv, err = listen(t); err != nil {
		return nil, err
	}
	specs, _, err := t.mixSpecs(len(kindNames))
	if err != nil {
		s.close()
		return nil, err
	}
	if s.rig, err = newStreamRig(s.srv, t, specs); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *wireStream) skipBuild() time.Duration { return s.t.skipBuild }

func (s *wireStream) prepare(warm *recorder) error {
	for range streamWarmup {
		s.rig.appendOp(warm)
	}
	return nil
}

func (s *wireStream) measure(rec *recorder) {
	for rec.running() {
		s.rig.appendOp(rec)
	}
}

func (s *wireStream) verify(rec *recorder) { s.rig.verifyFinal(rec) }

func (s *wireStream) traced(t *tracer, until time.Time, rec *recorder) error {
	if err := s.rig.startMirror(); err != nil {
		return err
	}
	for time.Now().Before(until) {
		s.rig.tracedAppendOp(t, rec)
	}
	s.rig.verifyFinal(rec)
	s.rig.noteStalls(t)
	// The standing queries as one-shot reads over the final snapshot:
	// the front door, codec, planner and engine arms on the kinds this
	// workload holds.
	snap, _, err := s.srv.Streaming().Ingest().Snapshot()
	if err != nil {
		return err
	}
	rp, err := newReplayer(snap, s.t.rankings, s.srv.Serving().Fabric(), s.t.seed)
	if err != nil {
		return err
	}
	defer rp.close()
	cls, err := dial(s.srv, 1)
	if err != nil {
		return err
	}
	defer cls[0].Close()
	for _, spec := range s.rig.specs {
		q, err := spec.Bind(rp.tables)
		if err != nil {
			return err
		}
		ref, err := reference(q)
		if err != nil {
			return err
		}
		tracedWireOp(t, rp, cls[0], spec, ref, q, rec)
	}
	return nil
}

func (s *wireStream) close() {
	if s.rig != nil {
		s.rig.close()
	}
	closeServer(s.srv, nil)
}
