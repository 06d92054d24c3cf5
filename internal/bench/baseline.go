package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/prune"
	"cheetah/internal/stats"
	"cheetah/internal/table"
	"cheetah/internal/workload"
	"cheetah/internal/workload/multitenant"
)

// BaselineEntry is one benchmark's machine-readable measurement.
type BaselineEntry struct {
	Name          string  `json:"name"`
	Path          string  `json:"path"` // "fused" or "scalar"
	Rows          int     `json:"rows"`
	NsPerOp       float64 `json:"ns_per_op"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// ServeBaselineEntry is one serving-fabric measurement: the mixed
// workload at a fabric width and client count. These rows are
// informational context (wall-clock serving throughput is too
// scheduler-dependent to gate CI on); the diff target compares only
// Benchmarks.
type ServeBaselineEntry struct {
	Switches      int     `json:"switches"`
	Clients       int     `json:"clients"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	// QoS/failover counters summed across the fabric at run end —
	// informational fields like the rest of the serve rows (zero on a
	// healthy non-chaos run except Admitted).
	Admitted       uint64 `json:"admitted"`
	Shed           uint64 `json:"shed"`
	FailedOver     uint64 `json:"failed_over"`
	Replaced       uint64 `json:"replaced"`
	DeadlineMissed uint64 `json:"deadline_missed"`
}

// StreamBaselineEntry is one streaming-ingest measurement: appender
// concurrency against ingest throughput and result freshness. Like the
// serve rows these are informational context only (wall-clock
// scheduling noise); the diff target compares only Benchmarks.
type StreamBaselineEntry struct {
	Appenders  int     `json:"appenders"`
	RowsPerSec float64 `json:"rows_per_sec"`
	FreshP50MS float64 `json:"fresh_p50_ms"`
	FreshP99MS float64 `json:"fresh_p99_ms"`
}

// NetBaselineEntry is one network-serving measurement: the connection
// churn against an in-process cheetahd over TCP loopback.
// Informational only, like the serve/stream rows (wall-clock network
// throughput is too host-dependent to gate CI on).
type NetBaselineEntry struct {
	Conns       int     `json:"conns"`
	ConnsPerSec float64 `json:"conns_per_sec"`
	RTTP50MS    float64 `json:"rtt_p50_ms"`
	RTTP99MS    float64 `json:"rtt_p99_ms"`
	Queries     int     `json:"queries"`
}

// BaselineReport is the file format of BENCH_baseline.json: enough
// context to compare runs across commits plus the per-benchmark entries.
type BaselineReport struct {
	GoVersion  string          `json:"go_version"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	Rows       int             `json:"rows"`
	Benchmarks []BaselineEntry `json:"benchmarks"`
	// Serve is the fabric scaling snapshot (switches × clients).
	Serve []ServeBaselineEntry `json:"serve,omitempty"`
	// Stream is the streaming ingest snapshot (appenders × freshness).
	Stream []StreamBaselineEntry `json:"stream,omitempty"`
	// Net is the network serving snapshot (connection churn over TCP
	// loopback).
	Net []NetBaselineEntry `json:"net,omitempty"`
	// Skip is the block-skipping snapshot (selectivity sweep over a
	// clustered column).
	Skip []SkipBaselineEntry `json:"skip,omitempty"`
}

// Baseline measures the ExecCheetah micro-benchmarks — the default
// fused path and the legacy scalar path — with
// testing.Benchmark and writes the results as JSON, giving future
// changes a perf trajectory to compare against. rows sizes the
// benchmark table (the tracked benchmarks use 100k).
func Baseline(w io.Writer, rows int) error {
	uv, err := workload.UserVisits(workload.DefaultUserVisits(rows, 1))
	if err != nil {
		return err
	}
	queries := []struct {
		name string
		q    *engine.Query
	}{
		{"ExecCheetahDistinct", &engine.Query{Kind: engine.KindDistinct, Table: uv, DistinctCols: []string{"userAgent"}}},
		{"ExecCheetahTopN", &engine.Query{Kind: engine.KindTopN, Table: uv, OrderCol: "adRevenue", N: 250}},
		{"ExecCheetahFilter", &engine.Query{
			Kind:  engine.KindFilter,
			Table: uv,
			Predicates: []engine.FilterPred{
				{Col: "adRevenue", Op: prune.OpGT, Const: 500_000},
				{Col: "duration", Op: prune.OpLE, Const: 120},
			},
			Formula:   boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}},
			CountOnly: true,
		}},
	}
	report := BaselineReport{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Rows:      rows,
	}
	for _, qc := range queries {
		for _, path := range []struct {
			name   string
			scalar bool
		}{{name: "fused"}, {name: "scalar", scalar: true}} {
			q, scalar := qc.q, path.scalar
			var benchErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: 5, Seed: uint64(i), Scalar: scalar}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			})
			if benchErr != nil {
				return fmt.Errorf("bench: %s/%s: %w", qc.name, path.name, benchErr)
			}
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			report.Benchmarks = append(report.Benchmarks, BaselineEntry{
				Name:          qc.name,
				Path:          path.name,
				Rows:          rows,
				NsPerOp:       nsPerOp,
				EntriesPerSec: float64(rows) / (nsPerOp / 1e9),
				AllocsPerOp:   r.AllocsPerOp(),
				BytesPerOp:    r.AllocedBytesPerOp(),
			})
		}
	}
	// Fabric serving snapshot: the mixed workload at 8 clients across
	// fabric widths, on a small mix so the baseline stays quick.
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: 10_000, RankRows: 5_000, Seed: 1})
	if err != nil {
		return err
	}
	for _, switches := range []int{1, 2, 4} {
		lv, sc, err := runServeLevel(mix, switches, 8, 1, false)
		if err != nil {
			return err
		}
		report.Serve = append(report.Serve, ServeBaselineEntry{
			Switches:       switches,
			Clients:        8,
			EntriesPerSec:  lv.EntriesPerSec(),
			P50MS:          stats.Percentile(lv.LatencyMS, 50),
			P99MS:          stats.Percentile(lv.LatencyMS, 99),
			Admitted:       sc.Admitted,
			Shed:           sc.Shed,
			FailedOver:     sc.FailedOver,
			Replaced:       sc.Replaced,
			DeadlineMissed: sc.DeadlineMissed,
		})
	}
	// Streaming ingest snapshot: the appender levels on a small mix.
	for _, appenders := range streamAppenderLevels {
		lv, err := runStreamLevel(mix, 1, appenders, 8_192, 1)
		if err != nil {
			return err
		}
		report.Stream = append(report.Stream, StreamBaselineEntry{
			Appenders:  appenders,
			RowsPerSec: lv.RowsPerSec,
			FreshP50MS: lv.P50MS,
			FreshP99MS: lv.P99MS,
		})
	}
	// Network serving snapshot: a small connection churn against an
	// in-process server on TCP loopback.
	netSrv, err := netserve.Listen("127.0.0.1:0", netserve.Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan:    plan.Options{Workers: 1, Seed: 1, Switches: 2},
	})
	if err != nil {
		return err
	}
	defer netSrv.Close()
	nv, err := runNetLevel(context.Background(), netSrv.Addr().String(), mix, 200)
	if err != nil {
		return err
	}
	report.Net = append(report.Net, NetBaselineEntry{
		Conns:       nv.Conns,
		ConnsPerSec: nv.ConnsPerSec(),
		RTTP50MS:    stats.Percentile(nv.RTTMS, 50),
		RTTP99MS:    stats.Percentile(nv.RTTMS, 99),
		Queries:     nv.Queries,
	})
	// Block-skipping snapshot: the selectivity sweep on a clustered
	// table sized to a handful of blocks so the baseline stays quick.
	skipTB, err := skipTable(16*table.DefaultBlockRows, 1)
	if err != nil {
		return err
	}
	for _, sel := range skipSelectivities {
		lv, err := runSkipLevel(skipTB, sel)
		if err != nil {
			return err
		}
		rate := 0.0
		if lv.Stats.BlocksSeen > 0 {
			rate = float64(lv.Stats.BlocksSkipped) / float64(lv.Stats.BlocksSeen)
		}
		report.Skip = append(report.Skip, SkipBaselineEntry{
			Selectivity:   sel,
			BlocksSeen:    lv.Stats.BlocksSeen,
			BlocksSkipped: lv.Stats.BlocksSkipped,
			RowsSkipped:   lv.Stats.RowsSkipped,
			SkipRate:      rate,
			EntriesPerSec: lv.SkipPerSec,
			ScanPerSec:    lv.ScanPerSec,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
