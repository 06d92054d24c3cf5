package engine

import (
	"testing"

	"cheetah/internal/obs"
	"cheetah/internal/switchsim"
)

// stagesOf indexes a trace's spans by stage.
func stagesOf(tr *obs.Trace) map[obs.Stage][]obs.Span {
	out := make(map[obs.Stage][]obs.Span)
	for _, s := range tr.Spans() {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// TestWallUnifiedAcrossPaths pins the timing-capture fix: every
// execution path stamps Wall exactly once, around the whole call, via
// the engine's shared Stopwatch — no path leaves it zero.
func TestWallUnifiedAcrossPaths(t *testing.T) {
	tb := equivTable(t, 3000, 0x5eed)
	rt := equivTable(t, 900, 0x0dd)
	for name, q := range equivQueries(tb, rt) {
		paths := map[string]func() (interface{ wall() int64 }, error){
			"scalar": func() (interface{ wall() int64 }, error) {
				r, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, Scalar: true})
				return cheetahWall{r}, err
			},
			"fused": func() (interface{ wall() int64 }, error) {
				r, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7})
				return cheetahWall{r}, err
			},
			"sharded": func() (interface{ wall() int64 }, error) {
				r, err := ExecSharded(q, ShardedOptions{Shards: 3, Workers: 2, Seed: 7})
				return shardedWall{r}, err
			},
		}
		for path, run := range paths {
			r, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path, err)
			}
			if r.wall() <= 0 {
				t.Fatalf("%s/%s: Wall not captured", name, path)
			}
		}
	}
}

type cheetahWall struct{ r *CheetahRun }

func (w cheetahWall) wall() int64 { return int64(w.r.Wall) }

type shardedWall struct{ r *ShardedRun }

func (w shardedWall) wall() int64 { return int64(w.r.Wall) }

// TestWallCoversFailoverRetries pins that a shard redone after a
// mid-stream switch death reports one Wall covering all attempts — the
// failover span's burn is inside Wall, not reset by the retry.
func TestWallCoversFailoverRetries(t *testing.T) {
	defer func(n int) { chunkEntries = n }(chunkEntries)
	chunkEntries = 256
	tb := equivTable(t, 3000, 0x5eed)
	rt := equivTable(t, 900, 0x0dd)
	q := equivQueries(tb, rt)["filter"]
	h := newFailoverHarness(t, q, 3, 0xfeed, map[int]switchsim.FaultInjector{
		1: func(flow uint32, chunk int) bool { return chunk >= 1 },
	})
	tr := obs.New()
	defer tr.Release()
	run, err := ExecSharded(q, ShardedOptions{
		Shards: 3, Workers: 2, Seed: 0xfeed,
		Pruners: h.pruners, Flows: h.flows, Failover: h.failover,
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.FailedOver < 1 {
		t.Fatalf("FailedOver = %d, want ≥ 1", run.FailedOver)
	}
	st := stagesOf(tr)
	if len(st[obs.StageFailover]) < 1 {
		t.Fatalf("no failover span recorded; spans:\n%s", tr)
	}
	var attempts int64
	for _, s := range append(st[obs.StageShard], st[obs.StageFailover]...) {
		attempts += int64(s.Dur)
	}
	if int64(run.Wall) < attempts/2 {
		// Shards run concurrently, so Wall < sum is normal; but Wall must
		// at least cover the longest chain — a per-attempt reset would
		// leave it far below the recorded span time.
		var longest int64
		for _, s := range append(st[obs.StageShard], st[obs.StageFailover]...) {
			if d := int64(s.Start + s.Dur); d > longest {
				longest = d
			}
		}
		if int64(run.Wall) < longest {
			t.Fatalf("Wall %v below the last span end %v: per-attempt reset?", run.Wall, longest)
		}
	}
}

// TestTracingDoesNotPerturbExecution pins the invariant: with and
// without a trace attached, every kind produces bit-identical results,
// traffic and stats.
func TestTracingDoesNotPerturbExecution(t *testing.T) {
	tb := equivTable(t, 3000, 0xabc)
	rt := equivTable(t, 900, 0xdef)
	for name, q := range equivQueries(tb, rt) {
		plain, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := obs.New()
		traced, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, Trace: tr})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !traced.Result.Equal(plain.Result) {
			t.Fatalf("%s: tracing changed the result", name)
		}
		if traced.Traffic != plain.Traffic || traced.Stats != plain.Stats {
			t.Fatalf("%s: tracing changed traffic/stats: %+v vs %+v", name, traced.Traffic, plain.Traffic)
		}
		tr.Release()
	}
}

// TestTraceSpansPerPath pins which stages each execution path records:
// one fused span on the single-switch path, per-shard + merge spans on
// the sharded path.
func TestTraceSpansPerPath(t *testing.T) {
	tb := equivTable(t, 3000, 0x111)
	rt := equivTable(t, 900, 0x222)
	for name, q := range equivQueries(tb, rt) {
		// Single switch: one fused span carrying the traffic.
		tr := obs.New()
		run, err := ExecCheetah(q, CheetahOptions{Workers: 2, Seed: 7, Trace: tr})
		if err != nil {
			t.Fatalf("%s fused: %v", name, err)
		}
		st := stagesOf(tr)
		if len(st[obs.StageFused]) == 0 {
			t.Fatalf("%s: fused path recorded no fused span; got:\n%s", name, tr)
		}
		if got := st[obs.StageFused][0].Entries; got != int64(run.Traffic.EntriesSent) {
			t.Fatalf("%s: fused span entries %d != traffic %d", name, got, run.Traffic.EntriesSent)
		}
		tr.Release()

		// Sharded path: one span per shard plus the global merge.
		tr = obs.New()
		const shards = 3
		srun, err := ExecSharded(q, ShardedOptions{Shards: shards, Workers: 2, Seed: 7, Trace: tr})
		if err != nil {
			t.Fatalf("%s sharded: %v", name, err)
		}
		st = stagesOf(tr)
		if len(st[obs.StageShard]) < shards {
			t.Fatalf("%s: %d shard spans for %d shards; got:\n%s", name, len(st[obs.StageShard]), shards, tr)
		}
		seen := map[int]bool{}
		var sent int64
		for _, s := range st[obs.StageShard] {
			seen[s.Switch] = true
			sent += s.Entries
		}
		if len(seen) != shards {
			t.Fatalf("%s: shard spans not labeled per switch: %v", name, seen)
		}
		// HAVING's partial second pass streams outside se.run, so span
		// entries bound the traffic from below.
		if sent == 0 || sent > int64(srun.Traffic.EntriesSent) {
			t.Fatalf("%s: shard span entries %d outside (0, %d]", name, sent, srun.Traffic.EntriesSent)
		}
		if len(st[obs.StageMerge]) == 0 {
			t.Fatalf("%s sharded: missing merge span; got:\n%s", name, tr)
		}
		tr.Release()
	}
}
