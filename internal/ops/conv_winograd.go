package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// conv.winograd — Winograd F(2x2, 3x3) convolution for stride-1 3x3
// layers. Each 2x2 output tile costs 16 multiplies instead of 36; the
// channel reductions become 16 independent GEMMs over the transformed
// domain. This is one of the "alternative algorithms" the paper's
// programming model is designed to host; the auto-tuning policy and the
// layer-wise experiments exercise it.
//
// Transform matrices (Lavin & Gray, 2016):
//
//	B^T = | 1  0 -1  0 |   G = | 1    0    0  |   A^T = | 1 1  1  0 |
//	      | 0  1  1  0 |       | 1/2  1/2  1/2|         | 0 1 -1 -1 |
//	      | 0 -1  1  0 |       | 1/2 -1/2  1/2|
//	      | 0  1  0 -1 |       | 0    0    1  |
func init() {
	// Every output pixel is written by the output transform, so the kernel
	// overwrites and the runtime skips the arena zero-fill.
	Register(NewOverwritingKernel("conv.winograd", "Conv", supportsWinograd, runConvWinograd))
}

func supportsWinograd(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == "" && p.kh == 3 && p.kw == 3 && p.sh == 1 && p.sw == 1 &&
		p.dh == 1 && p.dw == 1 && p.groups == 1
}

func runConvWinograd(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolveConvRT(n, in)
	if err != nil {
		return err
	}
	x := in[0].Data()
	var bias []float32
	if p.hasBias {
		bias = in[2].Data()
	}
	y := out[0].Data()

	th := (p.oh + 1) / 2 // tile rows
	tw := (p.ow + 1) / 2 // tile cols
	ntiles := th * tw

	// Weight transform U[pos][oc][ic] (weights are constant during
	// inference). Only the 16 prepacked GEMM A-panels are cached — the raw
	// transform is a local stepping stone — so the constant cache holds
	// one copy of the derived weights, not two.
	perPos := gemm.PackedASize(p.cout, p.cin)
	pu := ctx.Cache("conv.winograd/pU", n)
	if pu == nil {
		u := transformWinogradWeights(in[1].Data(), p.cout, p.cin)
		pu = make([]float32, 16*perPos)
		for pos := 0; pos < 16; pos++ {
			gemm.PrepackAInto(pu[pos*perPos:], u[pos*p.cout*p.cin:(pos+1)*p.cout*p.cin], p.cout, p.cin)
		}
		ctx.PutCache("conv.winograd/pU", n, pu)
	}

	// Both transform domains are fully written every run: V by the input
	// transform, M by the overwriting GEMMs below.
	v := ctx.ScratchUninit("conv.winograd/V", n, 16*p.cin*ntiles)
	m := ctx.ScratchUninit("conv.winograd/M", n, 16*p.cout*ntiles)

	for b := 0; b < p.n; b++ {
		// Input transform: V[pos][ic][tile] = (B^T d B)[pos].
		var d [16]float32
		for ic := 0; ic < p.cin; ic++ {
			plane := x[(b*p.cin+ic)*p.h*p.w:]
			for ty := 0; ty < th; ty++ {
				for tx := 0; tx < tw; tx++ {
					iy0 := 2*ty - p.padT
					ix0 := 2*tx - p.padL
					for dy := 0; dy < 4; dy++ {
						iy := iy0 + dy
						for dx := 0; dx < 4; dx++ {
							ix := ix0 + dx
							if iy < 0 || iy >= p.h || ix < 0 || ix >= p.w {
								d[dy*4+dx] = 0
							} else {
								d[dy*4+dx] = plane[iy*p.w+ix]
							}
						}
					}
					var t, vv [16]float32
					// t = B^T d
					for j := 0; j < 4; j++ {
						t[0*4+j] = d[0*4+j] - d[2*4+j]
						t[1*4+j] = d[1*4+j] + d[2*4+j]
						t[2*4+j] = -d[1*4+j] + d[2*4+j]
						t[3*4+j] = d[1*4+j] - d[3*4+j]
					}
					// vv = t B
					for i := 0; i < 4; i++ {
						vv[i*4+0] = t[i*4+0] - t[i*4+2]
						vv[i*4+1] = t[i*4+1] + t[i*4+2]
						vv[i*4+2] = -t[i*4+1] + t[i*4+2]
						vv[i*4+3] = t[i*4+1] - t[i*4+3]
					}
					tile := ty*tw + tx
					for pos := 0; pos < 16; pos++ {
						v[(pos*p.cin+ic)*ntiles+tile] = vv[pos]
					}
				}
			}
		}
		// 16 batched GEMMs: M[pos] = U[pos] (cout×cin) · V[pos] (cin×ntiles),
		// in overwrite mode so M needs no zero-fill between runs.
		for pos := 0; pos < 16; pos++ {
			ctx.GEMM(gemm.Call{
				PackedA: pu[pos*perPos : (pos+1)*perPos],
				B:       v[pos*p.cin*ntiles : (pos+1)*p.cin*ntiles],
				C:       m[pos*p.cout*ntiles : (pos+1)*p.cout*ntiles],
				M:       p.cout, N: ntiles, K: p.cin, Store: true,
			})
		}
		// Output transform: Y tile = A^T M A.
		for oc := 0; oc < p.cout; oc++ {
			var bv float32
			if bias != nil {
				bv = bias[oc]
			}
			dst := y[(b*p.cout+oc)*p.oh*p.ow:]
			for ty := 0; ty < th; ty++ {
				for tx := 0; tx < tw; tx++ {
					tile := ty*tw + tx
					var mm [16]float32
					for pos := 0; pos < 16; pos++ {
						mm[pos] = m[(pos*p.cout+oc)*ntiles+tile]
					}
					// t = A^T m (2x4)
					var t [8]float32
					for j := 0; j < 4; j++ {
						t[0*4+j] = mm[0*4+j] + mm[1*4+j] + mm[2*4+j]
						t[1*4+j] = mm[1*4+j] - mm[2*4+j] - mm[3*4+j]
					}
					// yTile = t A (2x2)
					var yt [4]float32
					for i := 0; i < 2; i++ {
						yt[i*2+0] = t[i*4+0] + t[i*4+1] + t[i*4+2]
						yt[i*2+1] = t[i*4+1] - t[i*4+2] - t[i*4+3]
					}
					for dy := 0; dy < 2; dy++ {
						oy := 2*ty + dy
						if oy >= p.oh {
							continue
						}
						for dx := 0; dx < 2; dx++ {
							ox := 2*tx + dx
							if ox >= p.ow {
								continue
							}
							dst[oy*p.ow+ox] = yt[dy*2+dx] + bv
						}
					}
				}
			}
		}
	}
	ctx.Sweep(y, nil, p.n*p.cout, p.oh*p.ow, p.activation, p.alpha)
	return nil
}

// transformWinogradWeights computes U[pos][oc][ic] = (G g G^T)[pos] for
// every filter pair.
func transformWinogradWeights(w []float32, cout, cin int) []float32 {
	u := make([]float32, 16*cout*cin)
	for oc := 0; oc < cout; oc++ {
		for ic := 0; ic < cin; ic++ {
			g := w[(oc*cin+ic)*9 : (oc*cin+ic)*9+9]
			// t = G g (4x3)
			var t [12]float32
			for j := 0; j < 3; j++ {
				t[0*3+j] = g[0*3+j]
				t[1*3+j] = 0.5 * (g[0*3+j] + g[1*3+j] + g[2*3+j])
				t[2*3+j] = 0.5 * (g[0*3+j] - g[1*3+j] + g[2*3+j])
				t[3*3+j] = g[2*3+j]
			}
			// uu = t G^T (4x4)
			var uu [16]float32
			for i := 0; i < 4; i++ {
				uu[i*4+0] = t[i*3+0]
				uu[i*4+1] = 0.5 * (t[i*3+0] + t[i*3+1] + t[i*3+2])
				uu[i*4+2] = 0.5 * (t[i*3+0] - t[i*3+1] + t[i*3+2])
				uu[i*4+3] = t[i*3+2]
			}
			for pos := 0; pos < 16; pos++ {
				u[(pos*cout+oc)*cin+ic] = uu[pos]
			}
		}
	}
	return u
}
