package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/wire"
)

// cheapWireModel is a nearly-free model with a wrn-40-2-sized input
// (1×3×32×32 = 3072 floats): GAP → Flatten → Softmax. With the kernels
// this cheap, an end-to-end benchmark times the serving plane itself —
// body transport, decode, staging, encode — which is exactly the delta
// the binary wire format exists to shrink.
func cheapWireModel(tb testing.TB) *graph.Graph {
	tb.Helper()
	g := graph.New("wirebench")
	x, _ := g.Input("input", []int{1, 3, 32, 32})
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, x)
	fl, _ := g.Add("Flatten", "flat", graph.Attrs{"axis": 1}, gap)
	sm, _ := g.Add("Softmax", "prob", nil, fl)
	_ = g.MarkOutput(sm)
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkWirePredict measures end-to-end /predict latency — client
// encode, HTTP round trip, server decode/execute/encode, client decode —
// for the JSON and binary tensor body formats over one live TCP
// connection; the binary format's reason to exist is this ratio.
func BenchmarkWirePredict(b *testing.B) {
	s := New()
	if err := s.AddModel("wire", cheapWireModel(b), "orpheus", 1); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	shape := []int{1, 3, 32, 32}
	input := make([]float32, 3*32*32)
	for i := range input {
		input[i] = float32(i%255) / 255
	}

	b.Run("json", func(b *testing.B) {
		url := ts.URL + "/predict/wire"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(predictRequest{Input: input})
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var out predictResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(out.Output) != 3 {
				b.Fatalf("json predict: status %d, err %v, %d outputs", resp.StatusCode, err, len(out.Output))
			}
		}
	})

	b.Run("binary", func(b *testing.B) {
		url := ts.URL + "/models/wire/predict"
		buf := make([]byte, 0, wire.EncodedSize(shape))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msg := wire.AppendTensor(buf[:0], input, shape)
			req, err := http.NewRequest("POST", url, bytes.NewReader(msg))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", ContentTypeTensor)
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("binary predict: status %d, err %v", resp.StatusCode, err)
			}
			out, err := wire.DecodeBytes(raw, 0)
			if err != nil || out.Size() != 3 {
				b.Fatalf("binary response: %v (%d values)", err, out.Size())
			}
		}
	})
}
