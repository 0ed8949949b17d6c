package machine

import "channeldns/internal/schedule"

// The machine model is a cost interpreter: internal/schedule declares WHAT
// one timestep (or Table 5/6 sub-cycle) does — the ordered transposes, FFT
// stages, reorders and banded solves — and Interpret walks that program
// applying this package's per-platform cost functions (alltoall locality and
// contention, memory streaming, calibrated kernel rates). Tables 5/6/9/10/11
// are all produced this way; there are no per-table time formulas.

// Env maps a schedule onto a platform: how the schedule's ranks are placed
// on nodes and what effective compute rate each node delivers. The table
// wrappers (TimestepTime, FFTCycleTime, ...) construct the paper's
// placements; MPIEnv builds the rank-per-core default for live reports.
type Env struct {
	Machine Machine
	Mode    Mode
	// RPNNode is the number of participating ranks per node; Nodes is the
	// job size in nodes (topology contention operates on it).
	RPNNode int
	Nodes   int
	// RPNGroupA/B is the node-locality of one CommA/CommB group: how many
	// of a group's ranks share a node (1 when every member is on its own
	// node, the full group when it fits in a node).
	RPNGroupA, RPNGroupB int
	// CoresEff is the effective core count compute rates are multiplied
	// by: physical cores x hardware-thread gain, degraded by the hybrid
	// threading efficiency when one task spans the node.
	CoresEff float64
}

// MPIEnv is the rank-per-core placement for a schedule at laptop/live
// scale: every rank on its own core, CommB groups packed contiguously.
// bench-validate -model uses it to price a live report's schedule.
func MPIEnv(m Machine, s *schedule.Schedule) Env {
	ranks := max(1, s.Ranks)
	rpnNode := min(m.CoresPerNode, ranks)
	pb := max(1, s.PB)
	return Env{
		Machine: m, Mode: ModeMPI,
		RPNNode: rpnNode, Nodes: max(1, ranks/m.CoresPerNode),
		RPNGroupA: max(1, rpnNode/pb), RPNGroupB: min(pb, rpnNode),
		CoresEff: float64(m.CoresPerNode) * m.HWThreadGain,
	}
}

// Interpret prices every op of the schedule under the environment and
// returns the accumulated breakdown: paper columns bucketed by op kind,
// live-taxonomy seconds bucketed by op phase.
func Interpret(env Env, s *schedule.Schedule) Breakdown {
	m := env.Machine
	b := Breakdown{Phases: map[string]float64{}}
	for _, op := range s.Ops {
		var t float64
		switch op.Kind {
		case schedule.OpTranspose:
			if op.CommSize > 1 {
				rpnGroup := env.RPNGroupB
				if op.Comm == "A" {
					rpnGroup = env.RPNGroupA
				}
				t = m.alltoall(a2aParams{
					p: op.CommSize, rpnGroup: rpnGroup, rpnNode: env.RPNNode,
					bytesPerRank: op.BytesPerRank, totalNodes: env.Nodes,
				})
			}
			b.Transpose += t
		case schedule.OpReorder:
			// Pack/unpack memory passes stream the payload of every rank on
			// the node through DDR. Degenerate single-rank groups exchange
			// nothing and are not repacked (matching alltoall's p<=1 case).
			if op.CommSize > 1 {
				t = op.Passes * float64(env.RPNNode) * op.BytesPerRank / m.MemBWNode
			}
			b.Transpose += t
		case schedule.OpOverlap:
			// Pipelined transpose fused with the FFT stage it hides: wire and
			// compute proceed concurrently, so the op costs the longer of the
			// two plus the exposed tail — the first chunk's wire time, which
			// nothing precedes to hide it under. The compute share lands on the
			// op's FFTPhase (and the FFT table column); the rest stays on the
			// transpose phase, so model and measurement split the same way.
			var wire float64
			if op.CommSize > 1 {
				rpnGroup := env.RPNGroupB
				if op.Comm == "A" {
					rpnGroup = env.RPNGroupA
				}
				wire = m.alltoall(a2aParams{
					p: op.CommSize, rpnGroup: rpnGroup, rpnNode: env.RPNNode,
					bytesPerRank: op.BytesPerRank, totalNodes: env.Nodes,
				})
			}
			flops := op.Flops
			if op.Axis == "x" && op.Padded {
				flops /= xCacheEff(op.Points)
			}
			compute := flops / float64(env.Nodes) / (m.FFTRate * env.CoresEff)
			t = compute
			if wire > t {
				t = wire
			}
			t += wire / float64(max(1, op.Chunks))
			b.Transpose += t - compute
			b.FFT += compute
			b.Phases[op.Phase] += t - compute
			b.Phases[op.FFTPhase] += compute
			continue
		case schedule.OpFFT:
			flops := op.Flops
			if op.Axis == "x" && op.Padded {
				// Long padded x lines fall out of cache under weak scaling
				// (paper §5.2); unpadded cycle stages keep streaming speed.
				flops /= xCacheEff(op.Points)
			}
			t = flops / float64(env.Nodes) / (m.FFTRate * env.CoresEff)
			b.FFT += t
		case schedule.OpSolve:
			t = op.Flops / float64(env.Nodes) / (m.NSRate * env.CoresEff)
			b.Advance += t
		case schedule.OpCollective:
			// Latency-dominated tree plus payload injection at the
			// contended share.
			p := max(2, op.CommSize)
			t = m.NetLatency*log2ceil(p) +
				op.BytesPerRank/(m.NetBWNode*m.TopoShare(env.Nodes))
			b.Collective += t
		}
		b.Phases[op.Phase] += t
	}
	return b
}

// log2ceil returns ceil(log2(n)) as a float for n >= 1.
func log2ceil(n int) float64 {
	var l float64
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// Feasible reports whether the schedule's resident working set fits in node
// memory under the environment's placement (the Table 6 "N/A" rows).
func Feasible(env Env, s *schedule.Schedule) bool {
	if s.ResidentBytesPerRank == 0 {
		return true
	}
	return s.ResidentBytesPerRank*float64(env.RPNNode) <= env.Machine.NodeMemBytes
}
