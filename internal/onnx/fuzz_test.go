package onnx

import (
	"os"
	"path/filepath"
	"testing"
)

// dimsModel is a one-node model, y = x + c, whose float initializer c
// carries the given dims and data and whose graph input x has shape in.
func dimsModel(dims []int64, data []float32, in []int64) *Model {
	m := &Model{IRVersion: 7, OpsetVersion: 11}
	m.Graph = Graph{
		Name:         "dims",
		Inputs:       []ValueInfo{{Name: "x", ElemType: TensorFloat, Shape: in}},
		Outputs:      []ValueInfo{{Name: "y", ElemType: TensorFloat, Shape: in}},
		Initializers: []Tensor{{Name: "c", Dims: dims, DataType: TensorFloat, FloatData: data}},
		Nodes:        []Node{{Name: "add", OpType: "Add", Inputs: []string{"x", "c"}, Outputs: []string{"y"}}},
	}
	return m
}

// hostileDims are initializer and input shapes a crafted file can carry:
// negative dims, dims whose volume wraps an int to 0, and a volume that
// disagrees with the data.
var hostileDims = []struct {
	name string
	dims []int64
	data []float32
	in   []int64
}{
	{"negative initializer dims", []int64{-1, -3}, []float32{1, 2, 3}, []int64{1, 3}},
	{"initializer volume wraps to 0", []int64{1 << 32, 1 << 32}, nil, []int64{1, 3}},
	{"initializer volume overflows", []int64{1 << 40, 1 << 40}, []float32{1}, []int64{1, 3}},
	{"initializer volume disagrees with data", []int64{2, 3}, []float32{1, 2, 3}, []int64{1, 3}},
	{"input volume wraps to 0", []int64{3}, []float32{1, 2, 3}, []int64{1 << 32, 1 << 32}},
}

// TestImportRejectsHostileDims holds ImportFile — orpheus.LoadONNX's
// parser — to an error, never a panic or a silently wrapped shape, on
// files whose dims are negative, overflow, or disagree with their data.
func TestImportRejectsHostileDims(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range hostileDims {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "m.onnx")
			if err := os.WriteFile(path, dimsModel(tc.dims, tc.data, tc.in).Marshal(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ImportFile(path); err == nil {
				t.Fatal("imported, want an error")
			}
		})
	}
}

// FuzzImport parses arbitrary bytes as an ONNX file and imports whatever
// parses: both steps must return an error, never panic. It is seeded with
// a small exported graph that uses every exportable op and with the
// hostile-dims files.
func FuzzImport(f *testing.F) {
	m, err := Export(buildMixedGraph(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Marshal())
	f.Add(dimsModel([]int64{1, 3}, []float32{1, 2, 3}, []int64{1, 3}).Marshal())
	for _, tc := range hostileDims {
		f.Add(dimsModel(tc.dims, tc.data, tc.in).Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		_, _ = Import(m)
	})
}
