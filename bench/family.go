package main

// Kernel families: the buckets per-layer time is attributed to.
const (
	famConvGemm      = "conv_gemm"
	famConvDepthwise = "conv_depthwise"
	famConvOther     = "conv_other"
	famDense         = "dense"
	famPool          = "pool"
	famElementwise   = "elementwise"
)

var families = []string{famConvGemm, famConvDepthwise, famConvOther, famDense, famPool, famElementwise}

// kernelFamilies maps every kernel registered in internal/ops to its
// family. TestEveryKernelHasAFamily fails when a kernel is registered
// without an entry here, so a new kernel cannot vanish from attribution.
var kernelFamilies = map[string]string{
	"conv.im2col":          famConvGemm,
	"conv.im2col_nhwc":     famConvGemm,
	"conv.im2col_int8":     famConvGemm,
	"conv.im2col_explicit": famConvGemm,
	"conv.group_im2col":    famConvGemm,
	"conv.depthwise":       famConvDepthwise,
	"conv.depthwise_nhwc":  famConvDepthwise,
	"conv.direct":          famConvOther,
	"conv.spatialpack":     famConvOther,
	"conv.winograd":        famConvOther,
	"dense.gemm":           famDense,
	"dense.gemm_int8":      famDense,
	"dense.naive":          famDense,
	"maxpool.direct":       famPool,
	"avgpool.direct":       famPool,
	"globalavgpool.direct": famPool,
	"add.direct":           famElementwise,
	"mul.direct":           famElementwise,
	"batchnorm.direct":     famElementwise,
	"relu.direct":          famElementwise,
	"relu6.direct":         famElementwise,
	"leakyrelu.direct":     famElementwise,
	"sigmoid.direct":       famElementwise,
	"softmax.direct":       famElementwise,
	"concat.copy":          famElementwise,
	"dropout.copy":         famElementwise,
	"flatten.copy":         famElementwise,
	"identity.copy":        famElementwise,
	"pad.copy":             famElementwise,
	"reshape.copy":         famElementwise,
	"transpose.copy":       famElementwise,
}
