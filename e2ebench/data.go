package main

// Input generation. The benchmark owns its generator, so a change to the
// program's own workload package cannot silently change what is measured:
// the program receives only the tables and queries built here, all derived
// from --seed.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// Column cardinalities of the generated UserVisits table. They follow the
// shape of the paper's Big Data benchmark sample: a Zipfian user-agent
// population (DISTINCT / GROUP BY MAX key), 10 countries (GROUP BY SUM key)
// and 100 languages (HAVING key).
const (
	numAgents    = 8192
	agentSkew    = 1.3
	numLanguages = 100
	numWords     = 5000
	numIPs       = 4096
)

var countries = []string{"US", "DE", "JP", "BR", "IN", "GB", "FR", "NG", "CN", "AU"}

func visitsSchema() table.Schema {
	return table.Schema{
		{Name: "sourceIP", Type: table.String},
		{Name: "destURL", Type: table.String},
		{Name: "visitDate", Type: table.Int64},
		{Name: "adRevenue", Type: table.Int64},
		{Name: "userAgent", Type: table.String},
		{Name: "countryCode", Type: table.String},
		{Name: "languageCode", Type: table.String},
		{Name: "searchWord", Type: table.String},
		{Name: "duration", Type: table.Int64},
	}
}

func rankingsSchema() table.Schema {
	return table.Schema{
		{Name: "pageURL", Type: table.String},
		{Name: "pageRank", Type: table.Int64},
		{Name: "avgDuration", Type: table.Int64},
	}
}

// mix64 is the SplitMix64 finalizer: distinct seeds give unrelated
// streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newRand returns the generator of one input stream of a seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed ^ mix64(stream)))))
}

// pools holds the string values rows draw from, so generating a row is a
// few random draws and no formatting.
type pools struct {
	agents, langs, words, ips, urls []string
}

func newPools(urls int) *pools {
	p := &pools{
		agents: make([]string, numAgents),
		langs:  make([]string, numLanguages),
		words:  make([]string, numWords),
		ips:    make([]string, numIPs),
		urls:   make([]string, urls),
	}
	for i := range p.agents {
		p.agents[i] = fmt.Sprintf("agent/%06d (Cheetah; rv:%d)", i, i%7)
	}
	for i := range p.langs {
		p.langs[i] = fmt.Sprintf("lang-%03d", i)
	}
	for i := range p.words {
		p.words[i] = fmt.Sprintf("word-%04d", i)
	}
	for i := range p.ips {
		p.ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>8&255, i&255, (i*37)&255)
	}
	for i := range p.urls {
		p.urls[i] = "url-" + strconv.Itoa(10_000_000+i) + ".example.com/page"
	}
	return p
}

// visitGen produces UserVisits rows from one seeded stream.
type visitGen struct {
	p    *pools
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newVisitGen(p *pools, seed, stream uint64) *visitGen {
	rng := newRand(seed, stream)
	return &visitGen{p: p, rng: rng, zipf: rand.NewZipf(rng, agentSkew, 1, numAgents-1)}
}

func (g *visitGen) appendRows(t *table.Table, n int) error {
	r, p := g.rng, g.p
	for range n {
		err := t.AppendRow(
			p.ips[r.Intn(numIPs)],
			p.urls[r.Intn(len(p.urls))],
			int64(20190101+r.Intn(365)),
			r.Int63n(10_000),
			p.agents[g.zipf.Uint64()],
			countries[r.Intn(len(countries))],
			p.langs[r.Intn(numLanguages)],
			p.words[r.Intn(numWords)],
			r.Int63n(600)+1,
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// genVisits builds a UserVisits table of n rows whose destURL draws from
// the pool's URL universe.
func genVisits(p *pools, n int, seed uint64) (*table.Table, error) {
	t, err := table.New(visitsSchema())
	if err != nil {
		return nil, err
	}
	t.Grow(n)
	if err := newVisitGen(p, seed, 1).appendRows(t, n); err != nil {
		return nil, err
	}
	return t, nil
}

// genBatches builds count append batches of rows rows each, drawn from a
// stream independent of the preloaded table's.
func genBatches(p *pools, count, rows int, seed uint64) ([]*table.Table, error) {
	g := newVisitGen(p, seed, 3)
	out := make([]*table.Table, count)
	for i := range out {
		t, err := table.New(visitsSchema())
		if err != nil {
			return nil, err
		}
		t.Grow(rows)
		if err := g.appendRows(t, rows); err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// genRankings builds a Rankings table of n rows whose pageURLs are the
// first n URLs of the pool: a JOIN on destURL matches about n/len(urls) of
// the visits and returns one row per matched URL.
func genRankings(p *pools, n int, seed uint64) (*table.Table, error) {
	t, err := table.New(rankingsSchema())
	if err != nil {
		return nil, err
	}
	t.Grow(n)
	rng := newRand(seed, 2)
	for i := range n {
		if err := t.AppendRow(p.urls[i%len(p.urls)], int64(i)+rng.Int63n(64), rng.Int63n(60)+1); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// kindNames are the program's own names of the eight query kinds,
// indexed by engine.QueryKind; the mix cycles through them in this order.
var kindNames = func() []string {
	names := make([]string, engine.KindSkyline+1)
	for k := range names {
		names[k] = engine.QueryKind(k).String()
	}
	return names
}()

// mixQuery returns query i of the 8-kind multi-tenant mix over visits and
// rankings: kind i mod 8, with the WHERE bound and the TOP N size jittered
// by the seed and i. The jitter ranges are narrow, so queries differ across
// seeds while their cost does not.
func mixQuery(visits, rankings *table.Table, seed uint64, i int) *engine.Query {
	jit := mix64(seed ^ mix64(uint64(i)+3))
	switch i % len(kindNames) {
	case 0:
		return &engine.Query{
			Kind:  engine.KindFilter,
			Table: visits,
			Predicates: []engine.FilterPred{
				{Col: "duration", Op: prune.OpGT, Const: 100 + int64(jit%50)},
				{Col: "adRevenue", Op: prune.OpLT, Const: 9_000},
			},
			Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
			CountOnly: true,
		}
	case 1:
		return &engine.Query{Kind: engine.KindDistinct, Table: visits, DistinctCols: []string{"userAgent"}}
	case 2:
		return &engine.Query{Kind: engine.KindTopN, Table: visits, OrderCol: "adRevenue", N: 100 + int(jit%50)}
	case 3:
		return &engine.Query{Kind: engine.KindGroupByMax, Table: visits, KeyCol: "userAgent", AggCol: "adRevenue"}
	case 4:
		return &engine.Query{Kind: engine.KindGroupBySum, Table: visits, KeyCol: "countryCode", AggCol: "adRevenue"}
	case 5:
		// Languages whose total duration exceeds one per row: every key
		// qualifies, so the switch cannot prune by threshold alone.
		return &engine.Query{
			Kind: engine.KindHaving, Table: visits, KeyCol: "languageCode", AggCol: "duration",
			Threshold: int64(visits.NumRows()),
		}
	case 6:
		return &engine.Query{Kind: engine.KindJoin, Table: visits, Right: rankings, LeftKey: "destURL", RightKey: "pageURL"}
	default:
		return &engine.Query{Kind: engine.KindSkyline, Table: visits, SkylineCols: []string{"adRevenue", "duration"}}
	}
}

// digest is a result's fingerprint: columns and rows, in the canonical
// sorted order every execution path returns. References are kept as
// digests so the benchmark does not hold result rows in the heap it
// measures.
type digest [32]byte

func digestOf(cols []string, rows [][]string) digest {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, c := range cols {
		put(c)
	}
	for _, r := range rows {
		binary.LittleEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		for _, c := range r {
			put(c)
		}
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// reference runs q on the exact single-node oracle.
func reference(q *engine.Query) (digest, error) {
	res, err := engine.ExecDirect(q)
	if err != nil {
		return digest{}, err
	}
	return digestOf(res.Columns, res.Rows), nil
}
