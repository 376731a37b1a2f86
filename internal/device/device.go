// Package device provides an analytical cost model standing in for the
// paper's evaluation hardware, the HiKey 970 board (single Arm Cortex-A73
// core). The repository cannot run on that board, so alongside real
// host-CPU timing the harness reports a simulated time computed from a
// roofline model:
//
//	t(node) = max(flops / (peak · eff), bytes / bandwidth) + dispatch
//
// where eff is a per-kernel efficiency that shrinks for small workloads
// (packing and loop overheads amortise over the work), and bytes charges
// each kernel's real memory traffic — including, crucially, the im2col
// materialisation that GEMM convolution pays and spatial-pack convolution
// avoids. Those two terms are what give Figure 2 its shape: GEMM wins the
// compute-bound big models, spatial pack wins the traffic-bound small
// ones, and per-call dispatch overhead sinks eager frameworks on
// many-layer networks.
//
// Constants were calibrated once against the qualitative results in the
// paper (who wins where, and by roughly what factor) and are documented
// inline; `orpheus-bench -experiment fig2` prints the resulting numbers
// next to the paper's (docs/CLI.md).
package device

import (
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// Device describes one simulated CPU core.
type Device struct {
	// Name identifies the device in reports.
	Name string
	// PeakGFlops is the single-core peak (NEON FMA) throughput.
	PeakGFlops float64
	// MemBWGBs is the sustained single-core DRAM bandwidth in GB/s.
	MemBWGBs float64
}

// HiKey970 returns the cost model for the paper's board: Cortex-A73 at
// 2.36 GHz, 128-bit NEON (8 f32 flops/cycle → ~18.9 GF peak), LPDDR4X
// giving roughly 6 GB/s to a single core.
func HiKey970() *Device {
	return &Device{Name: "hikey970-a73", PeakGFlops: 18.9, MemBWGBs: 6.0}
}

// kernelModel captures how efficiently a kernel turns peak flops into
// useful work and what memory traffic it generates beyond inputs+outputs.
//
// For convolution kernels the efficiency depends on the reduction depth
// K = (Cin/groups)·KH·KW of the equivalent GEMM — the paper's observation
// that "GEMM convolution pays off for big matrices". Packed GEMM amortises
// its panel-packing over K, so efficiency *grows* with K
// (eff = base·K/(K+growHalf)); spatial packing re-streams the weight panel
// per output tile, so its efficiency *decays* as K grows
// (eff = base·decayHalf/(decayHalf+K)). The two curves cross near
// K ≈ 700–900, which is what separates the small models (WRN, MobileNet;
// K ≤ 512) from the large ones (ResNets, Inception hot layers; K ≥ 1100)
// in Figure 2.
type kernelModel struct {
	// baseEff is the asymptotic efficiency vs peak.
	baseEff float64
	// growHalf: efficiency halves below this K (GEMM-style amortisation).
	growHalf float64
	// decayHalf: efficiency halves above this K (tile re-streaming).
	decayHalf float64
	// halfWork is a flop count at which efficiency halves, for
	// non-convolution kernels; 0 means size-independent.
	halfWork float64
	// extraBytes returns additional traffic in bytes (e.g. the im2col
	// buffer being written and re-read).
	extraBytes func(n *graph.Node) int64
	// perGroupNs charges a fixed cost per convolution group (the grouped
	// im2col path dispatches one unfold+GEMM per group).
	perGroupNs float64
}

// gemmDepth returns K of the conv-as-GEMM formulation, or 0 for non-conv.
func gemmDepth(n *graph.Node) float64 {
	if n.Op != "Conv" || len(n.Inputs) < 2 {
		return 0
	}
	w := n.Inputs[1].Shape
	if len(w) != 4 {
		return 0
	}
	return float64(w[1] * w[2] * w[3])
}

// isPointwise reports a 1x1 convolution, which both GEMM and spatial-pack
// kernels execute as a plain channel-contraction GEMM: conv.im2col's
// gather reads a 1x1 input with no unfold buffer (a stride-1 one in
// place), and spatial packing degenerates to the same loop, so the two run
// with near-identical, NCHWc-style efficiency curves.
func isPointwise(n *graph.Node) bool {
	if n.Op != "Conv" || len(n.Inputs) < 2 {
		return false
	}
	w := n.Inputs[1].Shape
	return len(w) == 4 && w[2] == 1 && w[3] == 1
}

// im2colBufferBytes is the unfold-matrix traffic: written once, read once.
func im2colBufferBytes(n *graph.Node) int64 {
	if n.Op != "Conv" || len(n.Inputs) < 2 || len(n.Outputs) != 1 {
		return 0
	}
	w := n.Inputs[1].Shape
	out := n.Outputs[0].Shape
	if len(w) != 4 || len(out) != 4 {
		return 0
	}
	kdim := w[1] * w[2] * w[3]
	cols := out[0] * out[2] * out[3]
	return 2 * 4 * int64(kdim) * int64(cols)
}

// directRereadBytes models direct convolution's poor input locality: the
// input is effectively streamed once per kernel element.
func directRereadBytes(n *graph.Node) int64 {
	if n.Op != "Conv" || len(n.Inputs) < 2 {
		return 0
	}
	w := n.Inputs[1].Shape
	in := n.Inputs[0].Shape
	if len(w) != 4 || len(in) != 4 {
		return 0
	}
	rereads := int64(w[2]*w[3]) - 1
	if rereads < 0 {
		rereads = 0
	}
	return 4 * rereads * int64(tensor.Volume(in))
}

// kernelModels: calibrated per-kernel constants (see package comment).
var kernelModels = map[string]kernelModel{
	"conv.im2col":      {baseEff: 0.55, growHalf: 600, extraBytes: im2colBufferBytes},
	"conv.spatialpack": {baseEff: 0.45, decayHalf: 1800},
	// Winograd's efficiency is expressed against *direct* flops (the cost
	// model sees NodeFlops): 2.25x fewer multiplies at GEMM-like
	// utilisation once the transforms amortise over channels.
	"conv.winograd":  {baseEff: 0.95, growHalf: 900, extraBytes: im2colBufferBytes},
	"conv.direct":    {baseEff: 0.06, extraBytes: directRereadBytes},
	"conv.depthwise": {baseEff: 0.30},
	// One unfold + tiny naive GEMM dispatched per group: crippling for
	// depthwise layers with hundreds of groups (the paper's PyTorch
	// MobileNetV1 observation).
	"conv.group_im2col": {baseEff: 0.08, extraBytes: im2colBufferBytes, perGroupNs: 20000},
	"dense.gemm":        {baseEff: 0.50, halfWork: 1e6},
	"dense.naive":       {baseEff: 0.08, halfWork: 1e4},
}

// defaultModel covers memory-bound structural and elementwise kernels.
var defaultModel = kernelModel{baseEff: 0.25, halfWork: 0}

// EstimateNode returns the simulated single-core execution time of one
// node under the given kernel.
func (d *Device) EstimateNode(n *graph.Node, kernelName string) time.Duration {
	if kernelName == "conv.im2col_explicit" {
		// The conv.im2col model already charges the unfold buffer's
		// traffic (and skips it on the pointwise path, as both kernels
		// do), so the explicit unfold costs the same.
		kernelName = "conv.im2col"
	}
	m, ok := kernelModels[kernelName]
	if !ok {
		m = defaultModel
	}
	flops := float64(ops.NodeFlops(n))
	bytes := float64(ops.NodeBytes(n))
	if m.extraBytes != nil {
		bytes += float64(m.extraBytes(n))
	}
	eff := m.baseEff
	if k := gemmDepth(n); k > 0 {
		switch {
		case isPointwise(n) && kernelName == "conv.im2col":
			// The gather reads the input in place: no unfold buffer.
			eff = 0.50 * k / (k + 250)
			bytes -= float64(im2colBufferBytes(n)) // no unfold buffer
		case isPointwise(n) && kernelName == "conv.spatialpack":
			// Degenerates to the same contraction, slightly better
			// small-K utilisation (NCHWc-style schedule).
			eff = 0.48 * k / (k + 150)
		default:
			if m.growHalf > 0 {
				eff *= k / (k + m.growHalf)
			}
			if m.decayHalf > 0 {
				eff *= m.decayHalf / (m.decayHalf + k)
			}
		}
	} else if m.halfWork > 0 && flops > 0 {
		eff = m.baseEff * flops / (flops + m.halfWork)
	}
	var seconds float64
	if flops > 0 && eff > 0 {
		seconds = flops / (d.PeakGFlops * 1e9 * eff)
	}
	if memSec := bytes / (d.MemBWGBs * 1e9); memSec > seconds {
		seconds = memSec
	}
	if m.perGroupNs > 0 {
		seconds += m.perGroupNs * 1e-9 * float64(groupCount(n))
	}
	return time.Duration(seconds * 1e9)
}

func groupCount(n *graph.Node) int {
	if n.Op != "Conv" {
		return 1
	}
	return n.Attrs.Int("group", 1)
}

// EstimatePlan sums the node estimates over a compiled plan, adding a
// fixed per-node dispatch overhead (framework-dependent: eager frameworks
// pay far more per operator call than compiled runtimes).
func (d *Device) EstimatePlan(plan *runtime.Plan, dispatch time.Duration) time.Duration {
	var total time.Duration
	for _, st := range plan.Steps() {
		total += d.EstimateNode(st.Node, st.Kernel) + dispatch
	}
	return total
}
