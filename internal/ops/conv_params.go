package ops

import (
	"fmt"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// convParams collects the resolved geometry of a Conv node.
//
// Conv node convention:
//
//	inputs:  X [N, Cin, H, W], W [Cout, Cin/groups, KH, KW], optional B [Cout]
//	attrs:   "strides" []int{sh, sw}   (default {1,1})
//	         "pads" []int{t, l, b, r}  (default zeros)
//	         "dilations" []int{dh, dw} (default {1,1})
//	         "group" int               (default 1)
//	         "activation" string       ("", "relu", "relu6", "leakyrelu";
//	                                    set by the fusion pass)
//	         "alpha" float64           (LeakyRelu slope when fused)
//	         "layout" string           ("" = NCHW, "nhwc"; set by the
//	                                    layout-assignment pass)
//	         "src_layout" string       (NHWC convs only: "nchw" when a
//	                                    boundary transpose was folded into
//	                                    the input gather, so X stays NCHW)
//
// Under layout "nhwc" the data input is [N, H, W, Cin] and the output is
// [N, OH, OW, Cout]; the weight and bias conventions are unchanged.
type convParams struct {
	n, cin, h, w           int // input
	cout, kh, kw           int // weights
	sh, sw                 int // strides
	padT, padL, padB, padR int
	dh, dw                 int // dilations
	groups                 int
	oh, ow                 int // output spatial dims
	hasBias                bool
	activation             string
	alpha                  float32
	layout                 string // "" (NCHW) or "nhwc"
	srcNCHW                bool   // NHWC conv reading an NCHW input (folded transpose)
}

// Attribute defaults are package-level so the resolvers stay
// allocation-free on the per-run hot path (a literal default slice would
// escape and heap-allocate on every call).
var (
	defaultStrides = []int{1, 1}
	defaultPads    = []int{0, 0, 0, 0}
	defaultDils    = []int{1, 1}
)

// resolveConv validates a Conv node's input shapes and attributes and
// computes the output geometry.
func resolveConv(n *graph.Node) (convParams, error) {
	var p convParams
	if len(n.Inputs) < 2 || len(n.Inputs) > 3 {
		return p, fmt.Errorf("Conv wants 2 or 3 inputs, got %d", len(n.Inputs))
	}
	x, w := n.Inputs[0].Shape, n.Inputs[1].Shape
	if len(x) != 4 {
		return p, fmt.Errorf("Conv input must be 4-D, got %v", x)
	}
	if len(w) != 4 {
		return p, fmt.Errorf("Conv weight must be 4-D [Cout,Cin/g,KH,KW], got %v", w)
	}
	switch p.layout = n.Attrs.Str("layout", ""); p.layout {
	case "":
		p.n, p.cin, p.h, p.w = x[0], x[1], x[2], x[3]
	case "nhwc":
		switch src := n.Attrs.Str("src_layout", "nhwc"); src {
		case "nhwc":
			p.n, p.h, p.w, p.cin = x[0], x[1], x[2], x[3]
		case "nchw":
			// A folded boundary transpose: the input stays NCHW in memory
			// and the implicit-GEMM gather absorbs the permutation.
			p.srcNCHW = true
			p.n, p.cin, p.h, p.w = x[0], x[1], x[2], x[3]
		default:
			return p, fmt.Errorf("Conv src_layout %q invalid (want nhwc or nchw)", src)
		}
	default:
		return p, fmt.Errorf("Conv layout %q invalid (want \"\" or nhwc)", p.layout)
	}
	p.cout, p.kh, p.kw = w[0], w[2], w[3]
	p.groups = n.Attrs.Int("group", 1)
	if p.groups < 1 {
		return p, fmt.Errorf("Conv group %d < 1", p.groups)
	}
	if p.cin%p.groups != 0 || p.cout%p.groups != 0 {
		return p, fmt.Errorf("Conv channels (in %d, out %d) not divisible by groups %d", p.cin, p.cout, p.groups)
	}
	if w[1] != p.cin/p.groups {
		return p, fmt.Errorf("Conv weight expects %d input channels per group, input has %d", w[1], p.cin/p.groups)
	}
	strides := n.Attrs.Ints("strides", defaultStrides)
	if len(strides) != 2 || strides[0] < 1 || strides[1] < 1 {
		return p, fmt.Errorf("Conv strides %v invalid", strides)
	}
	p.sh, p.sw = strides[0], strides[1]
	pads := n.Attrs.Ints("pads", defaultPads)
	if len(pads) != 4 || pads[0] < 0 || pads[1] < 0 || pads[2] < 0 || pads[3] < 0 {
		return p, fmt.Errorf("Conv pads %v invalid (want [top,left,bottom,right])", pads)
	}
	p.padT, p.padL, p.padB, p.padR = pads[0], pads[1], pads[2], pads[3]
	dil := n.Attrs.Ints("dilations", defaultDils)
	if len(dil) != 2 || dil[0] < 1 || dil[1] < 1 {
		return p, fmt.Errorf("Conv dilations %v invalid", dil)
	}
	p.dh, p.dw = dil[0], dil[1]
	ekh := (p.kh-1)*p.dh + 1 // effective kernel extent
	ekw := (p.kw-1)*p.dw + 1
	// Compute numerators separately: Go's integer division truncates
	// toward zero, so a negative numerator would silently yield output 1.
	numH := p.h + p.padT + p.padB - ekh
	numW := p.w + p.padL + p.padR - ekw
	if numH < 0 || numW < 0 {
		return p, fmt.Errorf("Conv kernel %dx%d (dilated %dx%d) exceeds padded input %dx%d",
			p.kh, p.kw, ekh, ekw, p.h+p.padT+p.padB, p.w+p.padL+p.padR)
	}
	p.oh = numH/p.sh + 1
	p.ow = numW/p.sw + 1
	if p.oh < 1 || p.ow < 1 {
		return p, fmt.Errorf("Conv output %dx%d not positive (input %dx%d kernel %dx%d)", p.oh, p.ow, p.h, p.w, p.kh, p.kw)
	}
	p.hasBias = len(n.Inputs) == 3
	if p.hasBias {
		b := n.Inputs[2].Shape
		if len(b) != 1 || b[0] != p.cout {
			return p, fmt.Errorf("Conv bias shape %v, want [%d]", b, p.cout)
		}
	}
	p.activation = n.Attrs.Str("activation", "")
	p.alpha = float32(n.Attrs.Float("alpha", 0.01))
	return p, nil
}

// resolveConvRT is resolveConv plus runtime-batch adoption: the node's
// declared shapes carry the plan's maximum batch, while the tensors a run
// actually binds may be sliced to any smaller batch. Kernels therefore
// loop over the batch the input tensor declares, not the static one.
func resolveConvRT(n *graph.Node, in []*tensor.Tensor) (convParams, error) {
	p, err := resolveConv(n)
	if err != nil {
		return p, err
	}
	p.n = in[0].Dim(0)
	return p, nil
}

// resolvePoolRT mirrors resolveConvRT for pooling windows.
func resolvePoolRT(n *graph.Node, in []*tensor.Tensor) (poolParams, error) {
	p, err := resolvePool(n)
	if err != nil {
		return p, err
	}
	p.n = in[0].Dim(0)
	return p, nil
}

// isDepthwise reports whether the conv is a pure depthwise convolution
// (groups == Cin, one filter per channel).
func (p convParams) isDepthwise() bool {
	return p.groups > 1 && p.groups == p.cin && p.cout == p.cin
}

// pointwise reports a 1×1 stride-1 unpadded convolution: its unfold is
// the input itself, a group's planes read as one contiguous matrix.
func (p convParams) pointwise() bool {
	return p.kh == 1 && p.kw == 1 && p.sh == 1 && p.sw == 1 && p.padT|p.padL|p.padB|p.padR == 0
}

// flops returns the multiply-accumulate count of the convolution, used by
// the device cost model and the profiler.
func (p convParams) flops() int64 {
	perOut := int64(p.cin/p.groups) * int64(p.kh) * int64(p.kw)
	outs := int64(p.n) * int64(p.cout) * int64(p.oh) * int64(p.ow)
	return 2 * perOut * outs
}

// gemmActivation maps a fused-activation attribute onto the GEMM epilogue
// enum. Unknown names panic.
func gemmActivation(act string) gemm.Activation {
	switch act {
	case "":
		return gemm.ActNone
	case "relu":
		return gemm.ActReLU
	case "relu6":
		return gemm.ActReLU6
	case "leakyrelu":
		return gemm.ActLeakyReLU
	default:
		panic(fmt.Sprintf("ops: unknown fused activation %q", act))
	}
}

// applyActivation applies a fused activation in place.
func applyActivation(data []float32, act string, alpha float32) {
	if a := gemmActivation(act); a != gemm.ActNone {
		gemm.ActivateRow(data, data, a, alpha)
	}
}
