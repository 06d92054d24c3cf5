package prune

import (
	"cheetah/internal/hashutil"
	"cheetah/internal/switchsim"
)

// Drainer is implemented by pruners that hold switch state the master
// must receive at end-of-stream (SKYLINE's stored points, GROUP BY SUM's
// partial aggregates). The control plane reads and clears the state when
// all workers have sent FIN.
type Drainer interface {
	Drain() [][]uint64
}

// Emitter is implemented by pruners that rewrite packets in flight: the
// entry that arrived is absorbed into switch state and the packet leaves
// carrying different values (an evicted aggregate, as in §6's in-switch
// SUM). The engine calls ProcessEmit instead of Process when available.
type Emitter interface {
	// ProcessEmit handles one entry. When the returned decision is
	// Forward, out holds the values the forwarded packet carries (which
	// may differ from vals). out is only valid until the next call.
	ProcessEmit(vals []uint64) (d switchsim.Decision, out []uint64)
}

// GroupBySumConfig configures the SUM GROUP BY offload used for the
// BigData benchmark's query B (§6): the switch keeps d×w (key, partial
// sum) pairs; entries matching a cached key are absorbed (summed and
// pruned); evictions emit the displaced aggregate toward the master; the
// residue drains at end-of-stream.
type GroupBySumConfig struct {
	// Rows (d) and Cols (w) size the aggregation matrix.
	Rows, Cols int
	// Seed drives key-to-row hashing.
	Seed uint64
}

// GroupBySum is the in-switch partial-aggregation pruner. Correctness is
// conservation: every entry's value is accounted exactly once, either in
// a still-cached partial sum (drained at FIN) or in an emitted aggregate
// packet, so the master's per-key totals equal the true sums.
type GroupBySum struct {
	cfg   GroupBySumConfig
	keys  []uint64
	sums  []int64
	used  []bool
	emit  []uint64 // scratch for the emitted (key, sum) pair
	mixed uint64   // hashutil.Premix(cfg.Seed)
	stats Stats
}

// NewGroupBySum builds the pruner.
func NewGroupBySum(cfg GroupBySumConfig) (*GroupBySum, error) {
	if err := validateDims("group-by-sum", cfg.Rows, cfg.Cols); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	return &GroupBySum{
		cfg:   cfg,
		keys:  make([]uint64, n),
		sums:  make([]int64, n),
		used:  make([]bool, n),
		emit:  make([]uint64, 2),
		mixed: hashutil.Premix(cfg.Seed),
	}, nil
}

// Name implements Pruner.
func (p *GroupBySum) Name() string { return "groupby-sum" }

// Guarantee implements Pruner.
func (p *GroupBySum) Guarantee() Guarantee { return Deterministic }

// Profile implements switchsim.Program: like GROUP BY but each slot holds
// a key and a sum register.
func (p *GroupBySum) Profile() switchsim.Profile {
	return switchsim.Profile{
		Name:         p.Name(),
		Stages:       p.cfg.Cols,
		ALUs:         p.cfg.Cols,
		SRAMBits:     p.cfg.Rows * p.cfg.Cols * 2 * 64,
		MetadataBits: 64 + 64 + 32,
	}
}

// Process implements switchsim.Program for callers unaware of emission:
// evictions are conservatively forwarded carrying the *arriving* entry
// (losing the absorption benefit but never correctness). Prefer
// ProcessEmit.
func (p *GroupBySum) Process(vals []uint64) switchsim.Decision {
	d, _ := p.ProcessEmit(vals)
	return d
}

// ProcessEmit implements Emitter. vals[0] is the (fingerprinted) group
// key, vals[1] the summand as int64.
func (p *GroupBySum) ProcessEmit(vals []uint64) (switchsim.Decision, []uint64) {
	p.stats.Processed++
	key := vals[0]
	v := int64(vals[1])
	row := hashutil.Reduce(hashutil.HashPremixed(key, p.mixed), p.cfg.Rows)
	base := row * p.cfg.Cols
	free := -1
	for i := base; i < base+p.cfg.Cols; i++ {
		if !p.used[i] {
			if free < 0 {
				free = i
			}
			continue
		}
		if p.keys[i] == key {
			// Absorb: the entry's value joins the cached partial sum and
			// the packet is pruned (and ACKed by the reliability layer).
			p.sums[i] += v
			p.stats.Pruned++
			return switchsim.Prune, nil
		}
	}
	if free >= 0 {
		p.used[free] = true
		p.keys[free] = key
		p.sums[free] = v
		p.stats.Pruned++
		return switchsim.Prune, nil
	}
	// Row full: evict the first slot (rolling replacement), forwarding
	// the evicted aggregate in the rewritten packet.
	p.emit[0] = p.keys[base]
	p.emit[1] = uint64(p.sums[base])
	copy(p.keys[base:base+p.cfg.Cols-1], p.keys[base+1:base+p.cfg.Cols])
	copy(p.sums[base:base+p.cfg.Cols-1], p.sums[base+1:base+p.cfg.Cols])
	p.keys[base+p.cfg.Cols-1] = key
	p.sums[base+p.cfg.Cols-1] = v
	return switchsim.Forward, p.emit
}

// Drain implements Drainer: the cached partial sums leave the switch as
// (key, sum) pairs at end-of-stream.
func (p *GroupBySum) Drain() [][]uint64 {
	var out [][]uint64
	for i, u := range p.used {
		if !u {
			continue
		}
		out = append(out, []uint64{p.keys[i], uint64(p.sums[i])})
		p.used[i] = false
	}
	return out
}

// Reset implements switchsim.Program.
func (p *GroupBySum) Reset() {
	for i := range p.used {
		p.used[i] = false
	}
	p.stats = Stats{}
}

// Stats implements Pruner.
func (p *GroupBySum) Stats() Stats { return p.stats }

var (
	_ Pruner  = (*GroupBySum)(nil)
	_ Emitter = (*GroupBySum)(nil)
	_ Drainer = (*GroupBySum)(nil)
	_ Drainer = (*Skyline)(nil)
)
