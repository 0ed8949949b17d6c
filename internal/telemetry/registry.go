package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns the per-rank collectors of one run and aggregates them
// into the cross-rank summaries the paper's tables report. Construction
// (Rank) takes a lock and may allocate; the recording hot path never
// touches the registry.
type Registry struct {
	mu         sync.Mutex
	collectors []*Collector // index = rank; nil gaps until first use
	// wire is the run's wire block, set by whoever gathers the ranks'
	// transport counters (nil for runs without a wire).
	wire atomic.Pointer[WireSummary]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Rank returns rank r's collector, creating it on first use. Safe for
// concurrent use; call once per rank at setup time, not per region.
func (r *Registry) Rank(rank int) *Collector {
	if rank < 0 {
		panic("telemetry: negative rank")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.collectors) <= rank {
		r.collectors = append(r.collectors, nil)
	}
	if r.collectors[rank] == nil {
		r.collectors[rank] = NewCollector(rank)
	}
	return r.collectors[rank]
}

// SetWire replaces the registry's wire block.
func (r *Registry) SetWire(w *WireSummary) { r.wire.Store(w) }

// Wire returns the registry's wire block, nil when none was set.
func (r *Registry) Wire() *WireSummary { return r.wire.Load() }

// Ranks returns the number of rank slots registered so far.
func (r *Registry) Ranks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.collectors)
}

// Reset zeroes every registered collector (see Collector.Reset).
func (r *Registry) Reset() {
	r.mu.Lock()
	cs := append([]*Collector(nil), r.collectors...)
	r.mu.Unlock()
	for _, c := range cs {
		c.Reset()
	}
}

// PhaseStats summarizes one phase across ranks, the shape of a paper-table
// row: per-rank totals reduced to min/mean/max and the load imbalance
// ratio. Per-span latencies are the flight recorder's (internal/trace).
type PhaseStats struct {
	Phase string `json:"phase"`
	Calls int64  `json:"calls"`
	// TotalSeconds is the sum of per-rank phase time (rank-seconds).
	TotalSeconds float64 `json:"total_seconds"`
	// Min/Mean/MaxRankSeconds reduce the per-rank totals across ranks.
	MinRankSeconds  float64 `json:"min_rank_seconds"`
	MeanRankSeconds float64 `json:"mean_rank_seconds"`
	MaxRankSeconds  float64 `json:"max_rank_seconds"`
	// Imbalance is max/mean of the per-rank totals (1.0 = perfectly
	// balanced, like the paper's wait-time discussion; 0 when unsampled).
	Imbalance float64 `json:"imbalance"`
}

// CommStats summarizes one communication channel across ranks.
type CommStats struct {
	Op       string `json:"op"`
	Calls    int64  `json:"calls"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// Snapshot is a deterministic cross-rank aggregation: phases and channels
// appear in enum order, zero-activity entries are dropped, and every
// number is an order-independent reduction of atomic counters — the same
// run produces the same snapshot however its workers interleaved.
type Snapshot struct {
	Ranks  int          `json:"ranks"`
	Phases []PhaseStats `json:"phases"`
	Comm   []CommStats  `json:"comm"`
	// Steps counts recorded whole timesteps; MeanStepSeconds is the mean
	// of the per-rank step-time totals over the ranks that recorded steps.
	Steps           int64   `json:"steps,omitempty"`
	MeanStepSeconds float64 `json:"mean_step_seconds,omitempty"`
	Flops           int64   `json:"flops,omitempty"`
}

// Snapshot aggregates the registered collectors. Ranks never registered
// (nil slots) are skipped.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := make([]*Collector, 0, len(r.collectors))
	for _, c := range r.collectors {
		if c != nil {
			cs = append(cs, c)
		}
	}
	r.mu.Unlock()
	return aggregate(cs)
}

func aggregate(cs []*Collector) Snapshot {
	snap := Snapshot{Ranks: len(cs)}
	if len(cs) == 0 {
		return snap
	}
	for p := Phase(0); p < NumPhases; p++ {
		var st PhaseStats
		st.Phase = p.String()
		var minS, maxS float64
		for i, c := range cs {
			s := time.Duration(c.phases[p].ns.Load()).Seconds()
			st.Calls += c.phases[p].calls.Load()
			st.TotalSeconds += s
			if i == 0 || s < minS {
				minS = s
			}
			if i == 0 || s > maxS {
				maxS = s
			}
		}
		if st.Calls == 0 {
			continue
		}
		st.MinRankSeconds = minS
		st.MaxRankSeconds = maxS
		st.MeanRankSeconds = st.TotalSeconds / float64(len(cs))
		if st.MeanRankSeconds > 0 {
			st.Imbalance = st.MaxRankSeconds / st.MeanRankSeconds
		}
		snap.Phases = append(snap.Phases, st)
	}
	for op := CommOp(0); op < NumCommOps; op++ {
		var cst CommStats
		cst.Op = op.String()
		for _, c := range cs {
			calls, msgs, bytes := c.CommCounts(op)
			cst.Calls += calls
			cst.Messages += msgs
			cst.Bytes += bytes
		}
		if cst.Calls == 0 {
			continue
		}
		snap.Comm = append(snap.Comm, cst)
	}
	var stepTot float64
	var stepRanks int
	for _, c := range cs {
		snap.Steps += c.Steps()
		snap.Flops += c.Flops()
		if s := c.StepSeconds(); c.Steps() > 0 {
			stepTot += s
			stepRanks++
		}
	}
	if stepRanks > 0 {
		snap.MeanStepSeconds = stepTot / float64(stepRanks)
	}
	return snap
}

// PhaseSecondsSum returns the sum of mean-rank phase seconds — the
// "instrumented wall clock" a report's phase breakdown accounts for. For
// a serial run this should match the measured step wall clock closely
// (the acceptance bound in the repo is 10%).
func (s *Snapshot) PhaseSecondsSum() float64 {
	var sum float64
	for _, p := range s.Phases {
		sum += p.MeanRankSeconds
	}
	return sum
}
