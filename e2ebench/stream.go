package main

// The append-to-visible rig: one connection appends 256-row batches into
// the server's streamed visits table, a second holds one standing
// subscription per query kind and grants one credit per update. The loop
// is closed: the next batch goes out only after every subscription has
// delivered an update whose version covers the previous one.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

type note struct {
	u  *wire.UpdateMsg
	at time.Time
}

// standing is one subscription as the client sees it.
type standing struct {
	kind    int
	sub     *netserve.ClientSub
	notes   chan note
	lastVer uint64
	last    *wire.UpdateMsg
}

// waitFor consumes updates until one covers version v, and returns when
// it arrived. A version that goes backwards is a correctness failure.
func (s *standing) waitFor(v uint64, timer <-chan time.Time) (*wire.UpdateMsg, time.Time, error) {
	for {
		select {
		case n, ok := <-s.notes:
			if !ok {
				return nil, time.Time{}, fmt.Errorf("%s subscription closed", kindNames[s.kind])
			}
			if n.u.Version < s.lastVer {
				return nil, time.Time{}, fmt.Errorf("%w: %s update version went from %d back to %d",
					errMismatch, kindNames[s.kind], s.lastVer, n.u.Version)
			}
			s.lastVer, s.last = n.u.Version, n.u
			if n.u.Version >= v {
				return n.u, n.at, nil
			}
		case <-timer:
			return nil, time.Time{}, fmt.Errorf("%s: no update covering version %d within %v", kindNames[s.kind], v, opTimeout)
		}
	}
}

type streamRig struct {
	srv      *netserve.Server
	t        *tables
	specs    []wire.QuerySpec
	cls      []*netserve.Client // appender, subscriber
	subs     []*standing
	batches  []*table.Table
	appended []int // batch indices in commit order
	pumps    sync.WaitGroup
	mirror   *mirror
}

func newStreamRig(srv *netserve.Server, t *tables, specs []wire.QuerySpec) (*streamRig, error) {
	r := &streamRig{srv: srv, t: t, specs: specs}
	var err error
	if r.batches, err = genBatches(t.p, batchPool, batchRows, t.seed); err != nil {
		return nil, err
	}
	if r.cls, err = dial(srv, 2); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for _, spec := range specs {
		sub, err := r.cls[1].Subscribe(ctx, spec, netserve.SubscribeOptions{Credits: 1, Buffer: 4})
		if err != nil {
			r.close()
			return nil, err
		}
		// notes is sized far beyond the one or two updates an append
		// produces, so the pump never blocks the client's read loop
		// while the benchmark checks results between ops.
		s := &standing{kind: int(spec.Kind), sub: sub, notes: make(chan note, 4096)}
		r.subs = append(r.subs, s)
		r.pumps.Add(1)
		go func() {
			defer r.pumps.Done()
			defer close(s.notes)
			for u := range sub.Updates() {
				at := time.Now()
				// A failed credit write means the connection is gone;
				// the pump then ends with the closed update channel.
				_ = sub.Credit(1)
				s.notes <- note{u, at}
			}
		}()
	}
	// Registration completes when every subscription has published the
	// standing result over the preloaded rows.
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	v := srv.Streaming().Version()
	for _, s := range r.subs {
		if _, _, err := s.waitFor(v, timer.C); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// appendOne sends the next batch and waits until every subscription
// covers it. It returns the append round trip and each kind's
// append-to-update latency.
func (r *streamRig) appendOne() (rtt time.Duration, lat []time.Duration, ups []*wire.UpdateMsg, err error) {
	idx := len(r.appended) % len(r.batches)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	v, err := r.cls[0].Append(ctx, r.batches[idx])
	rtt = time.Since(t0)
	if err != nil {
		return rtt, nil, nil, err
	}
	r.appended = append(r.appended, idx)
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	lat = make([]time.Duration, len(r.subs))
	ups = make([]*wire.UpdateMsg, len(r.subs))
	for i, s := range r.subs {
		u, at, err := s.waitFor(v, timer.C)
		if err != nil {
			return rtt, nil, nil, err
		}
		lat[i], ups[i] = at.Sub(t0), u
	}
	return rtt, lat, ups, nil
}

func (r *streamRig) kinds() []int {
	ks := make([]int, len(r.subs))
	for i, s := range r.subs {
		ks[i] = s.kind
	}
	return ks
}

func (r *streamRig) appendOp(rec *recorder) {
	_, lat, _, err := r.appendOne()
	if err != nil {
		rec.fail(errors.Is(err, errMismatch), err)
		return
	}
	rec.ok(r.kinds(), lat, maxDur(lat), batchRows)
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// finalTable recomputes the streamed table locally: the initial rows
// plus every committed batch in order.
func (r *streamRig) finalTable() (*table.Table, error) {
	t, err := r.t.regenVisits()
	if err != nil {
		return nil, err
	}
	all := make([]int, batchRows)
	for i := range all {
		all[i] = i
	}
	for _, idx := range r.appended {
		if err := t.AppendRowsFrom(r.batches[idx], all); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// verifyFinal checks every subscription's last standing result against
// ExecDirect over the final table. A mismatch fails one op per kind.
func (r *streamRig) verifyFinal(rec *recorder) {
	final, err := r.finalTable()
	if err != nil {
		rec.fail(false, err)
		return
	}
	tabs := map[string]*table.Table{"visits": final, "rankings": r.t.rankings}
	for i, s := range r.subs {
		q, err := r.specs[i].Bind(tabs)
		if err == nil {
			var ref digest
			if ref, err = reference(q); err == nil && (s.last == nil || digestOf(s.last.Columns, s.last.Rows) != ref ||
				s.lastVer != uint64(final.NumRows())) {
				err = fmt.Errorf("%w: final standing %s result differs from ExecDirect over %d rows",
					errMismatch, kindNames[s.kind], final.NumRows())
			}
		}
		if err != nil {
			rec.fail(errors.Is(err, errMismatch), err)
		}
	}
}

// mirror is a library streaming handle over a local copy of the streamed
// table holding the same standing queries; the traced run replays each
// append into it to time the stream layer's calls in process.
type mirror struct {
	sess *plan.Session
	st   *plan.Streaming
	subs []*plan.Subscription
}

func (r *streamRig) startMirror() error {
	base, err := r.finalTable()
	if err != nil {
		return err
	}
	m := &mirror{}
	if m.sess, err = plan.Open(base, plan.Options{Switches: 2, Workers: 1, Seed: r.t.seed}); err != nil {
		return err
	}
	r.mirror = m
	// The handle and its subscriptions live as long as the context they
	// are opened with.
	ctx := context.Background()
	if m.st, err = m.sess.Stream(ctx, plan.StreamOptions{}); err != nil {
		return err
	}
	tabs := map[string]*table.Table{"visits": base, "rankings": r.t.rankings}
	for _, spec := range r.specs {
		q, err := spec.Bind(tabs)
		if err != nil {
			return err
		}
		sub, err := m.st.Subscribe(ctx, q)
		if err != nil {
			return err
		}
		m.subs = append(m.subs, sub)
	}
	for _, sub := range m.subs {
		if err := sub.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}

// tracedAppendOp is one traced append: the TCP append and the wait for
// every subscription, the update codec on each delivered update, then
// the same batch appended to the mirror with every subscription flushed
// concurrently.
func (r *streamRig) tracedAppendOp(t *tracer, rec *recorder) {
	o := t.op("op.append", "")
	defer o.end()
	var rtt time.Duration
	var lat []time.Duration
	var ups []*wire.UpdateMsg
	var err error
	o.call("stream.visible", "", func() error { rtt, lat, ups, err = r.appendOne(); return err })
	if err != nil {
		rec.fail(errors.Is(err, errMismatch), err)
		return
	}
	rec.ok(r.kinds(), lat, maxDur(lat), batchRows)
	t.sample("netserve.append_rtt_us", float64(rtt)/1e3)
	for i, u := range ups {
		o.call("wire.update_codec", kindNames[r.subs[i].kind], func() error {
			var back wire.UpdateMsg
			return back.DecodeBody(u.EncodeBody(nil))
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	batch := r.batches[r.appended[len(r.appended)-1]]
	if _, err := o.call("stream.append", "", func() error { return r.mirror.st.AppendBatch(batch) }); err != nil {
		rec.fail(false, err)
		return
	}
	errs := make([]error, len(r.mirror.subs))
	var wg sync.WaitGroup
	for i, sub := range r.mirror.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = o.call("stream.flush", kindNames[r.subs[i].kind], func() error { return sub.Flush(ctx) })
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		rec.fail(false, err)
	}
}

// tracedProbe measures the stream layers on a workload that does not
// append: a short closed append run with the full traced replay.
func (r *streamRig) tracedProbe(t *tracer, n int, rec *recorder) error {
	if err := r.startMirror(); err != nil {
		return err
	}
	for range n {
		r.tracedAppendOp(t, rec)
	}
	r.verifyFinal(rec)
	r.noteStalls(t)
	return nil
}

// noteStalls records the server's credit-stall count.
func (r *streamRig) noteStalls(t *tracer) {
	t.sample("netserve.credit_stalls", float64(r.srv.Metrics().Counter("credit_stalls").Get()))
}

func (r *streamRig) close() {
	if r.mirror != nil {
		if r.mirror.st != nil {
			r.mirror.st.Close()
		}
		r.mirror.sess.Close()
	}
	// Closing the connections closes every subscription channel, which
	// ends the pumps.
	for _, cl := range r.cls {
		if cl != nil {
			cl.Close()
		}
	}
	r.pumps.Wait()
}
