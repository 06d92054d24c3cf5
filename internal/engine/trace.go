package engine

// The engine's single wall-clock capture point. Trace spans are recorded
// where every execution funnels through: the ExecCheetah dispatch (one
// fused span per execution) and shardExec.run (every sharded pass,
// including failover redos). A nil trace keeps all of it disabled at the
// cost of one pointer check.

import "time"

// Stopwatch is the engine's one wall-clock source. Every execution
// path — direct, cheetah (scalar/compiled) and sharded — captures its
// wall time through StartClock/Elapsed so the numbers are comparable
// across paths and cover a whole call including internal failover
// redos, never a single attempt.
type Stopwatch struct{ t0 time.Time }

// StartClock starts a monotonic stopwatch.
func StartClock() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed is the monotonic wall time since StartClock.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }
