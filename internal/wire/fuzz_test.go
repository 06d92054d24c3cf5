package wire

import (
	"bytes"
	"fmt"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// FuzzPacketDecodeFrom throws arbitrary bytes at the dataplane packet
// decoder. The invariants: never panic, and anything that decodes must
// re-encode to exactly the input bytes (DecodeFrom accepts only
// canonical framings).
func FuzzPacketDecodeFrom(f *testing.F) {
	// Seed with a round-trip corpus covering every message type and the
	// value-count edges.
	seeds := []Packet{
		NewData(1, 0, nil),
		NewData(7, 42, []uint64{1, 2, 3}),
		NewData(0xffffffff, 1<<63, make([]uint64, MaxValues)),
		NewAck(3, 9),
		NewFin(3, 100),
		NewFinAck(3, 100),
	}
	for i := range seeds {
		buf, err := seeds[i].AppendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Known-hostile shapes: truncations, bad type, count/length skew.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xcc})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		var p Packet
		if err := p.DecodeFrom(b); err != nil {
			return
		}
		out, err := p.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded packet fails to encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("round trip not canonical:\n in %x\nout %x", b, out)
		}
	})
}

// FuzzFrameDecode throws arbitrary frame bodies at every stream-frame
// decoder. The invariant is no panics and no over-allocation: hostile
// counts must be rejected by the remaining-bytes guards before any
// large make().
func FuzzFrameDecode(f *testing.F) {
	spec := QuerySpec{
		Kind:       1,
		Table:      "t",
		Predicates: []PredSpec{{Col: "c", Op: 2, Const: 5}},
		Formula:    []byte{0, 0},
	}
	f.Add(uint8(FrameHello), (&Hello{Version: ProtoVersion, Tenant: "x"}).EncodeBody(nil))
	f.Add(uint8(FrameWelcome), (&Welcome{Version: 1, Switches: 2, Stream: "t"}).EncodeBody(nil))
	f.Add(uint8(FrameQuery), (&QueryReq{ID: 1, Spec: spec}).EncodeBody(nil))
	f.Add(uint8(FrameResult), (&ResultMsg{ID: 1, Columns: []string{"a"}, Rows: [][]string{{"1"}}}).EncodeBody(nil))
	f.Add(uint8(FrameError), (&ErrorMsg{ID: 1, Code: CodeRetryable, Msg: "m"}).EncodeBody(nil))
	f.Add(uint8(FramePing), (&PingMsg{Nonce: 3}).EncodeBody(nil))
	f.Add(uint8(FrameAppend), (&AppendReq{ID: 1, Rows: 1, Cols: []ColData{{Type: 0, Ints: []int64{4}}}}).EncodeBody(nil))
	f.Add(uint8(FrameAppended), (&AppendedMsg{ID: 1, Version: 2}).EncodeBody(nil))
	f.Add(uint8(FrameSubscribe), (&SubscribeReq{ID: 1, Credits: 2, Spec: spec}).EncodeBody(nil))
	f.Add(uint8(FrameSubscribed), (&SubscribedMsg{ID: 1}).EncodeBody(nil))
	f.Add(uint8(FrameUpdate), (&UpdateMsg{ID: 1, Version: 9, Columns: []string{"a"}, Rows: [][]string{{"1"}}}).EncodeBody(nil))
	f.Add(uint8(FrameCredit), (&CreditMsg{ID: 1, N: 1}).EncodeBody(nil))
	f.Add(uint8(FrameUnsubscribe), (&UnsubscribeMsg{ID: 1}).EncodeBody(nil))
	f.Add(uint8(FrameGoodbye), (&GoodbyeMsg{Reason: "r"}).EncodeBody(nil))
	// Hostile: huge declared counts with tiny bodies.
	f.Add(uint8(FrameResult), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, ft uint8, body []byte) {
		var m frameMsg
		switch FrameType(ft) {
		case FrameHello:
			m = &Hello{}
		case FrameWelcome:
			m = &Welcome{}
		case FrameQuery:
			m = &QueryReq{}
		case FrameResult:
			m = &ResultMsg{}
		case FrameError:
			m = &ErrorMsg{}
		case FramePing, FramePong:
			m = &PingMsg{}
		case FrameAppend:
			m = &AppendReq{}
		case FrameAppended:
			m = &AppendedMsg{}
		case FrameSubscribe:
			m = &SubscribeReq{}
		case FrameSubscribed:
			m = &SubscribedMsg{}
		case FrameUpdate:
			m = &UpdateMsg{}
		case FrameCredit:
			m = &CreditMsg{}
		case FrameUnsubscribe:
			m = &UnsubscribeMsg{}
		case FrameGoodbye:
			m = &GoodbyeMsg{}
		default:
			return
		}
		if err := m.DecodeBody(body); err != nil {
			return
		}
		// Successful decodes re-encode to the same bytes: the body
		// grammar is canonical.
		out := m.EncodeBody(nil)
		if !bytes.Equal(out, body) {
			t.Fatalf("frame %d round trip not canonical:\n in %x\nout %x", ft, body, out)
		}
	})
}

// fuzzTables builds the catalog FuzzQueryEquivalence binds specs to:
// table "t" and its join partner "r", with skewed string keys, repeated
// values and block skip indexes, so every pruner sees hits, misses and
// evictions and every skipping path has blocks to consider.
func fuzzTables(tb testing.TB) map[string]*table.Table {
	tb.Helper()
	gen := func(rows int, seed uint64) *table.Table {
		t := table.MustNew(table.Schema{
			{Name: "name", Type: table.String},
			{Name: "score", Type: table.Int64},
			{Name: "group", Type: table.String},
			{Name: "val", Type: table.Int64},
			{Name: "dim1", Type: table.Int64},
			{Name: "dim2", Type: table.Int64},
		})
		s := seed
		next := func(mod int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			return int64(s>>33) % mod
		}
		for i := 0; i < rows; i++ {
			err := t.AppendRow(fmt.Sprintf("user%03d", next(90)), next(10_000)+int64(i), fmt.Sprintf("g%d", next(13)),
				next(200)-20, next(500), next(500))
			if err != nil {
				tb.Fatal(err)
			}
		}
		if err := t.BuildSkipIndex(64); err != nil {
			tb.Fatal(err)
		}
		return t
	}
	return map[string]*table.Table{"t": gen(400, 0x5eed), "r": gen(150, 0x0dd)}
}

// FuzzQueryEquivalence decodes a query spec with the canonical codec,
// binds it to generated tables, and pins every execution path to the
// oracles: Results equal ExecDirect's on the compiled path at 1 and 3
// workers, with block skipping, on the scalar path and sharded over 2
// switches; compiled Traffic and Stats equal the scalar path's at the
// same worker count (randomized TOP N draws a different, equally sound
// RNG stream and is exempt). Specs that fail Bind are skipped.
func FuzzQueryEquivalence(f *testing.F) {
	tables := fuzzTables(f)
	t := tables["t"]
	filter := []engine.FilterPred{
		{Col: "score", Op: prune.OpGT, Const: 4_000},
		{Col: "val", Op: prune.OpLT, Const: 90},
		{Col: "name", Like: "user0%"},
	}
	seeds := []*engine.Query{
		{Kind: engine.KindFilter, Table: t, Predicates: filter,
			Formula: boolexpr.Or{boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}, boolexpr.Leaf{V: 2}}},
		{Kind: engine.KindFilter, Table: t, Predicates: filter[:1], Formula: boolexpr.Leaf{V: 0}, CountOnly: true},
		{Kind: engine.KindDistinct, Table: t, DistinctCols: []string{"name"}},
		{Kind: engine.KindDistinct, Table: t, DistinctCols: []string{"group", "val"}},
		{Kind: engine.KindTopN, Table: t, OrderCol: "score", N: 20},
		{Kind: engine.KindGroupByMax, Table: t, KeyCol: "group", AggCol: "score"},
		{Kind: engine.KindGroupBySum, Table: t, KeyCol: "group", AggCol: "val"},
		{Kind: engine.KindHaving, Table: t, KeyCol: "name", AggCol: "val", Threshold: 300},
		{Kind: engine.KindJoin, Table: t, Right: tables["r"], LeftKey: "name", RightKey: "name"},
		{Kind: engine.KindSkyline, Table: t, SkylineCols: []string{"dim1", "dim2"}},
	}
	for _, q := range seeds {
		right := ""
		if q.Right != nil {
			right = "r"
		}
		s, err := SpecOf(q, "t", right)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(appendSpec(nil, s))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		d := decoder{b: b}
		s := d.spec()
		if d.done() != nil {
			return
		}
		q, err := s.Bind(tables)
		if err != nil {
			return
		}
		direct, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatalf("ExecDirect of a bound query: %v", err)
		}
		exempt := q.Kind == engine.KindTopN
		for _, workers := range []int{1, 3} {
			scalar, serr := engine.ExecCheetah(q, engine.CheetahOptions{Workers: workers, Seed: 7, Scalar: true})
			run, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: workers, Seed: 7})
			if (serr == nil) != (err == nil) {
				t.Fatalf("w=%d: scalar error %v, compiled error %v", workers, serr, err)
			}
			if err != nil {
				// The engine has no default program for this shape; every
				// pruned path refuses it alike.
				return
			}
			if !scalar.Result.Equal(direct) {
				t.Fatalf("w=%d: scalar result diverges\ndirect:\n%s\nscalar:\n%s", workers, direct, scalar.Result)
			}
			if !run.Result.Equal(direct) {
				t.Fatalf("w=%d: compiled result diverges\ndirect:\n%s\ncompiled:\n%s", workers, direct, run.Result)
			}
			if !exempt && (run.Traffic != scalar.Traffic || run.Stats != scalar.Stats) {
				t.Fatalf("w=%d: compiled traffic %+v stats %+v, scalar %+v %+v",
					workers, run.Traffic, run.Stats, scalar.Traffic, scalar.Stats)
			}
		}
		skip, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: 3, Seed: 7, Skip: true})
		if err != nil {
			t.Fatalf("skip: %v", err)
		}
		if !skip.Result.Equal(direct) {
			t.Fatalf("skip result diverges\ndirect:\n%s\nskip:\n%s", direct, skip.Result)
		}
		if q.Kind == engine.KindJoin {
			lt := q.Table.Schema()[q.Table.Schema().Index(q.LeftKey)].Type
			rt := q.Right.Schema()[q.Right.Schema().Index(q.RightKey)].Type
			if lt != rt {
				return // co-locating shards needs same-typed keys
			}
		}
		sharded, err := engine.ExecSharded(q, engine.ShardedOptions{Shards: 2, Workers: 2, Seed: 7})
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		if !sharded.Result.Equal(direct) {
			t.Fatalf("sharded result diverges\ndirect:\n%s\nsharded:\n%s", direct, sharded.Result)
		}
	})
}
