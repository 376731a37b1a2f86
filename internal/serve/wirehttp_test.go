package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"orpheus/internal/wire"
)

// postWire posts one binary-encoded sample. query is appended verbatim
// ("?topk=2"); hdrs overrides/extends the headers (Content-Type defaults
// to the tensor type).
func postWire(t *testing.T, url string, input []float32, shape []int, query string, hdrs map[string]string) *http.Response {
	t.Helper()
	body := wire.AppendTensor(nil, input, shape)
	req, err := http.NewRequest("POST", url+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeTensor)
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBinaryPredict drives the binary round trip on both the unbatched
// and the batched server: the tensor-typed request decodes, executes and
// returns a tensor-typed response whose output matches the JSON path
// bit-for-bit, with the metadata moved into X-Orpheus-* headers.
func TestBinaryPredict(t *testing.T) {
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.02 * float32(i%9)
	}
	want := referenceOutput(t, input)

	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"unbatched", nil},
		{"batched", []Option{WithMaxBatch(4), WithFlushDeadline(time.Millisecond)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, ts := newTestServer(t, mode.opts...)
			for _, path := range []string{"/predict/tiny", "/models/tiny/predict"} {
				resp := postWire(t, ts.URL+path, input, []int{1, 3, 8, 8}, "?topk=2", nil)
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					t.Fatalf("%s = %d (%s), want 200", path, resp.StatusCode, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != ContentTypeTensor {
					t.Fatalf("response Content-Type = %q, want %q", ct, ContentTypeTensor)
				}
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				out, err := wire.DecodeBytes(raw, 0)
				if err != nil {
					t.Fatalf("response is not one well-framed wire tensor: %v", err)
				}
				if out.Size() != len(want) {
					t.Fatalf("output size %d, want %d", out.Size(), len(want))
				}
				for i, v := range out.Data() {
					if v != want[i] {
						t.Fatalf("%s output[%d] = %v, want %v (JSON reference)", path, i, v, want[i])
					}
				}
				if bs := resp.Header.Get("X-Orpheus-Batch-Size"); bs == "" || bs == "0" {
					t.Fatalf("X-Orpheus-Batch-Size = %q", bs)
				}
				if resp.Header.Get("X-Orpheus-Latency-Ms") == "" {
					t.Fatal("X-Orpheus-Latency-Ms missing")
				}
				topk := resp.Header.Get("X-Orpheus-TopK")
				if len(strings.Split(topk, ",")) != 2 {
					t.Fatalf("X-Orpheus-TopK = %q, want two indices", topk)
				}
			}
		})
	}
}

// TestContentTypeConformance is the negotiation conformance table: every
// (Content-Type, Accept, body) combination maps to the documented status
// and response format. Mismatched and garbage content types are rejected
// up front (415), malformed binary bodies with the correct type are the
// client's fault (400), and the response format follows Accept when it
// names a supported type, mirroring the request otherwise.
func TestContentTypeConformance(t *testing.T) {
	okInput := make([]float32, 3*8*8)
	jsonBody, _ := json.Marshal(map[string]any{"input": okInput})
	wireBody := wire.AppendTensor(nil, okInput, []int{1, 3, 8, 8})
	shortWire := wire.AppendTensor(nil, make([]float32, 7), []int{7})
	bigWire := wire.AppendTensor(nil, make([]float32, 3*8*8*50), []int{50, 3, 8, 8})

	cases := []struct {
		name       string
		path       string // default /predict/tiny
		ct, accept string
		body       []byte
		want       int
		wantCT     string // response Content-Type when 200
	}{
		{name: "json-to-json", ct: "application/json", body: jsonBody,
			want: http.StatusOK, wantCT: "application/json"},
		{name: "json-charset-param", ct: "application/json; charset=utf-8", body: jsonBody,
			want: http.StatusOK, wantCT: "application/json"},
		{name: "no-content-type-defaults-json", ct: "", body: jsonBody,
			want: http.StatusOK, wantCT: "application/json"},
		{name: "binary-to-binary", ct: ContentTypeTensor, body: wireBody,
			want: http.StatusOK, wantCT: ContentTypeTensor},
		{name: "binary-accepting-json", ct: ContentTypeTensor, accept: "application/json", body: wireBody,
			want: http.StatusOK, wantCT: "application/json"},
		{name: "json-accepting-binary", ct: "application/json", accept: ContentTypeTensor, body: jsonBody,
			want: http.StatusOK, wantCT: ContentTypeTensor},
		{name: "wildcard-accept-mirrors-request", ct: ContentTypeTensor, accept: "*/*", body: wireBody,
			want: http.StatusOK, wantCT: ContentTypeTensor},
		{name: "garbage-content-type", ct: "application/x-protobuf", body: wireBody,
			want: http.StatusUnsupportedMediaType},
		{name: "form-content-type", ct: "application/x-www-form-urlencoded", body: jsonBody,
			want: http.StatusUnsupportedMediaType},
		{name: "unparseable-content-type", ct: "not a media type;;;", body: jsonBody,
			want: http.StatusUnsupportedMediaType},
		{name: "json-body-labelled-binary", ct: ContentTypeTensor, body: jsonBody,
			want: http.StatusBadRequest},
		{name: "binary-body-labelled-json", ct: "application/json", body: wireBody,
			want: http.StatusBadRequest},
		{name: "binary-truncated", ct: ContentTypeTensor, body: wireBody[:len(wireBody)-3],
			want: http.StatusBadRequest},
		{name: "binary-wrong-volume", ct: ContentTypeTensor, body: shortWire,
			want: http.StatusBadRequest},
		{name: "binary-oversized", ct: ContentTypeTensor, body: bigWire,
			want: http.StatusBadRequest},
		{name: "binary-garbage-bytes", ct: ContentTypeTensor, body: []byte("ORPTxxxxxxxxxxxxxxxxxxxx"),
			want: http.StatusBadRequest},
		{name: "binary-bad-topk", ct: ContentTypeTensor, body: wireBody,
			path: "/predict/tiny?topk=banana", want: http.StatusBadRequest},
		{name: "binary-bad-wait", ct: ContentTypeTensor, body: wireBody,
			path: "/predict/tiny?wait_ms=-4", want: http.StatusBadRequest},
		{name: "profile-rejects-binary", ct: ContentTypeTensor, body: wireBody,
			path: "/profile/tiny", want: http.StatusUnsupportedMediaType},
		{name: "rest-path-binary", ct: ContentTypeTensor, body: wireBody,
			path: "/models/tiny/predict", want: http.StatusOK, wantCT: ContentTypeTensor},
		{name: "rest-path-unknown-model", ct: ContentTypeTensor, body: wireBody,
			path: "/models/nope/predict", want: http.StatusNotFound},
	}
	_, ts := newTestServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/predict/tiny"
			}
			req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ct != "" {
				req.Header.Set("Content-Type", tc.ct)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
			if tc.want == http.StatusOK {
				if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
					t.Fatalf("response Content-Type = %q, want %q", ct, tc.wantCT)
				}
				return
			}
			// Errors are always JSON with a non-empty message.
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("error body missing or not JSON (%v)", err)
			}
		})
	}
}

// TestPriorityShedOrdering pins the tiered admission contract end to
// end: with the server partially full, a low-priority model is already
// past its admission limit (429) while the high-priority model still
// admits — and the 429 names the limit so operators can see the tiering
// act.
func TestPriorityShedOrdering(t *testing.T) {
	s := New(WithMaxInflight(4))
	if err := s.AddModel("hi", tinyModel(t), "orpheus", 1, WithModelPriority(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("lo", tinyModel(t), "orpheus", 1, WithModelPriority(0)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := newHTTPServer(t, s)

	// Two distinct classes over cap 4: hi admits to 4, lo only to 2.
	hi, _ := s.entry("hi")
	lo, _ := s.entry("lo")
	if got := hi.admitLimit.Load(); got != 4 {
		t.Fatalf("hi admit limit = %d, want 4", got)
	}
	if got := lo.admitLimit.Load(); got != 2 {
		t.Fatalf("lo admit limit = %d, want 2", got)
	}

	// Occupy two slots; the server is half full.
	for i := 0; i < 2; i++ {
		release, err := s.admit(hi)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}

	loResp := postJSON(t, ts.URL+"/predict/lo", map[string]any{"input": sampleInput()})
	if loResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("low-priority predict at half load = %d, want 429", loResp.StatusCode)
	}
	if loResp.Header.Get("Retry-After") == "" {
		t.Fatal("priority shed carries no Retry-After")
	}
	var e map[string]string
	_ = json.NewDecoder(loResp.Body).Decode(&e)
	if !strings.Contains(e["error"], "admission limit") {
		t.Fatalf("429 body %q does not name the admission limit", e["error"])
	}

	hiResp := postJSON(t, ts.URL+"/predict/hi", map[string]any{"input": sampleInput()})
	if hiResp.StatusCode != http.StatusOK {
		t.Fatalf("high-priority predict at half load = %d, want 200", hiResp.StatusCode)
	}
	if s.ShedCount() < 1 {
		t.Fatalf("ShedCount = %d, want >= 1", s.ShedCount())
	}
}

// TestBinaryPredictAllocFree pins the decode-to-staging path the binary
// handler composes — header validation against the model and payload
// decode into the staging row of the session that will run it — at zero
// allocations per request, the property that makes the binary format
// worth its bytes.
func TestBinaryPredictAllocFree(t *testing.T) {
	s := New()
	if err := s.AddModel("tiny", tinyModel(t), "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	e, _ := s.entry("tiny")

	input := make([]float32, e.perVol)
	for i := range input {
		input[i] = float32(i%5) * 0.3
	}
	msg := wire.AppendTensor(nil, input, []int{1, 3, 8, 8})
	sess := e.sessions.Get()
	defer e.sessions.Put(sess)
	dst := sess.Staging(1).Data()
	allocs := testing.AllocsPerRun(500, func() {
		payload, err := validateWireBody(e, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Float32Into(dst, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode-to-staging allocs/op = %v, want 0", allocs)
	}
	for i := range dst {
		if dst[i] != input[i] {
			t.Fatalf("staged[%d] = %v, want %v", i, dst[i], input[i])
		}
	}
}

// TestBinaryPredictRejectsU8 pins the dtype guard: a u8 wire message
// (legal on the shard transport) whose element count matches the model
// must still be rejected — the HTTP path stages float32 only, and
// without the guard the body would predict on garbage.
func TestBinaryPredictRejectsU8(t *testing.T) {
	s := New()
	if err := s.AddModel("tiny", tinyModel(t), "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	e, _ := s.entry("tiny")

	q := make([]byte, e.perVol)
	msg := wire.AppendTensorU8(nil, q, []int{1, 3, 8, 8}, 0.5, 128)
	if _, err := validateWireBody(e, msg); !errors.Is(err, wire.ErrFormat) {
		t.Fatalf("u8 body error = %v, want wire.ErrFormat", err)
	}
}
