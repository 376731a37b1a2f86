package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// tinyModel: conv -> relu -> gap -> flatten -> dense -> softmax on 8x8.
func tinyModel(t testing.TB) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(61)
	g := graph.New("tiny")
	x, _ := g.Input("input", []int{1, 3, 8, 8})
	w, _ := g.Const("w", tensor.HeNormal(r, 8, 3, 3, 3))
	c, _ := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w)
	rl, _ := g.Add("Relu", "relu", nil, c)
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, rl)
	fl, _ := g.Add("Flatten", "flat", graph.Attrs{"axis": 1}, gap)
	wf, _ := g.Const("wf", tensor.HeNormal(r, 4, 8))
	fc, _ := g.Add("Dense", "fc", nil, fl, wf)
	sm, _ := g.Add("Softmax", "prob", nil, fc)
	_ = g.MarkOutput(sm)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts...)
	if err := s.AddModel("tiny", tinyModel(t), "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// newHTTPServer wraps an already-configured Server in an httptest server.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestModelsListing(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0]["name"] != "tiny" || infos[0]["backend"] != "orpheus" {
		t.Fatalf("models = %v", infos)
	}
	// param_bytes is the weight memory the plan holds. The orpheus backend
	// packs both of tiny's weights (neither layer has a bias), so the plan
	// keeps no raw constant and all of it is packed panels.
	e, _ := s.reg.lookup("tiny")
	plan := e.sessions.Plan()
	if plan.WeightBytes() != 0 || plan.ConstBytes() == 0 {
		t.Fatalf("plan holds %d B of raw weights and %d B of panels, want 0 and > 0", plan.WeightBytes(), plan.ConstBytes())
	}
	if got := int64(infos[0]["param_bytes"].(float64)); got != plan.ConstBytes() {
		t.Fatalf("param_bytes = %d, want the %d B of packed panels the plan holds", got, plan.ConstBytes())
	}
}

func TestPredict(t *testing.T) {
	_, ts := newTestServer(t)
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = float32(i%7) * 0.1
	}
	resp := postJSON(t, ts.URL+"/predict/tiny", map[string]any{"input": input, "topk": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	var out struct {
		Output    []float32 `json:"output"`
		Shape     []int     `json:"shape"`
		TopK      []int     `json:"topk"`
		LatencyMs float64   `json:"latency_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Output) != 4 || len(out.TopK) != 2 {
		t.Fatalf("response: %+v", out)
	}
	var sum float32
	for _, v := range out.Output {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if out.LatencyMs <= 0 {
		t.Fatal("latency missing")
	}
}

func TestPredictValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// Wrong input length → 400.
	resp := postJSON(t, ts.URL+"/predict/tiny", map[string]any{"input": []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input = %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if e["error"] == "" {
		t.Fatal("error body missing")
	}
	// Unknown model → 404.
	resp = postJSON(t, ts.URL+"/predict/nope", map[string]any{"input": []float32{}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", resp.StatusCode)
	}
	// Invalid JSON → 400.
	r2, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", r2.StatusCode)
	}
}

// countingBody is an endless JSON predict body — an input array that never
// closes — capped at limit bytes, counting what the server reads.
type countingBody struct {
	read, limit int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	const head, elem = `{"input":[`, "0.1234567,"
	if b.read >= b.limit {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && b.read < b.limit {
		if b.read < int64(len(head)) {
			p[n] = head[b.read]
		} else {
			p[n] = elem[(b.read-int64(len(head)))%int64(len(elem))]
		}
		n++
		b.read++
	}
	return n, nil
}

// TestJSONBodyBounded: a JSON body larger than the model's bound is
// refused with 400 after the server reads no more than the bound, on both
// JSON endpoints.
func TestJSONBodyBounded(t *testing.T) {
	s, _ := newTestServer(t)
	e, _ := s.entry("tiny")
	for _, path := range []string{"/predict/tiny", "/profile/tiny"} {
		body := &countingBody{limit: 10 * e.maxJSONLen}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: oversize JSON body = %d, want 400", path, rec.Code)
		}
		if body.read > e.maxJSONLen {
			t.Errorf("%s: server read %d bytes of the body, bound is %d", path, body.read, e.maxJSONLen)
		}
		if !strings.Contains(rec.Body.String(), "exceeds") {
			t.Errorf("%s: error body %q does not report the size bound", path, rec.Body.String())
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	input := make([]float32, 3*8*8)
	resp := postJSON(t, ts.URL+"/profile/tiny", map[string]any{"input": input})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d", resp.StatusCode)
	}
	var rows []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	// The orpheus backend fuses relu into the conv: conv+relu, gap,
	// flatten, dense, softmax.
	if len(rows) != 5 {
		t.Fatalf("profile rows = %d, want 5", len(rows))
	}
	if rows[0]["kernel"] == "" {
		t.Fatal("kernel name missing in profile")
	}
}

func TestConcurrentPredicts(t *testing.T) {
	// Sessions are serialised per entry; concurrent requests must all
	// succeed and produce identical outputs for identical inputs.
	_, ts := newTestServer(t)
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.01 * float32(i%13)
	}
	var wg sync.WaitGroup
	outs := make([][]float32, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"input": input})
			resp, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var out struct {
				Output []float32 `json:"output"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			outs[i] = out.Output
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j := range outs[i] {
			if outs[i][j] != outs[0][j] {
				t.Fatalf("request %d diverged", i)
			}
		}
	}
}

// TestHandlerStatusTable audits the error statuses of every endpoint in
// one table: all lookup failures are 404, all malformed bodies 400,
// regardless of which handler fields the request.
func TestHandlerStatusTable(t *testing.T) {
	_, ts := newTestServer(t)
	okInput := make([]float32, 3*8*8)
	okBody, _ := json.Marshal(map[string]any{"input": okInput})
	shortBody, _ := json.Marshal(map[string]any{"input": []float32{1, 2, 3}})
	cases := []struct {
		name, method, path string
		body               string
		want               int
	}{
		{"predict ok", "POST", "/predict/tiny", string(okBody), http.StatusOK},
		{"profile ok", "POST", "/profile/tiny", string(okBody), http.StatusOK},
		{"predict unknown model", "POST", "/predict/nope", string(okBody), http.StatusNotFound},
		{"profile unknown model", "POST", "/profile/nope", string(okBody), http.StatusNotFound},
		{"predict bad JSON", "POST", "/predict/tiny", "{nope", http.StatusBadRequest},
		{"profile bad JSON", "POST", "/profile/tiny", "{nope", http.StatusBadRequest},
		{"predict short input", "POST", "/predict/tiny", string(shortBody), http.StatusBadRequest},
		{"profile short input", "POST", "/profile/tiny", string(shortBody), http.StatusBadRequest},
		{"predict empty body", "POST", "/predict/tiny", "", http.StatusBadRequest},
		{"profile empty body", "POST", "/profile/tiny", "", http.StatusBadRequest},
		{"predict trailing junk", "POST", "/predict/tiny", string(okBody) + " this is not json", http.StatusBadRequest},
		{"profile trailing junk", "POST", "/profile/tiny", string(okBody) + " this is not json", http.StatusBadRequest},
		{"predict second value", "POST", "/predict/tiny", string(okBody) + string(okBody), http.StatusBadRequest},
		{"profile second value", "POST", "/profile/tiny", string(okBody) + "{}", http.StatusBadRequest},
		{"predict trailing whitespace", "POST", "/predict/tiny", string(okBody) + " \r\n\t\n", http.StatusOK},
		{"profile trailing whitespace", "POST", "/profile/tiny", string(okBody) + "\n", http.StatusOK},
		{"predict wrong method", "GET", "/predict/tiny", "", http.StatusMethodNotAllowed},
		{"profile wrong method", "GET", "/profile/tiny", "", http.StatusMethodNotAllowed},
		{"models ok", "GET", "/models", "", http.StatusOK},
		{"healthz ok", "GET", "/healthz", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if tc.want >= 400 && tc.want != http.StatusMethodNotAllowed {
				var e map[string]string
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
					t.Errorf("%s %s: error body missing (%v)", tc.method, tc.path, err)
				}
			}
		})
	}
}

// referenceOutput computes the unbatched ground truth for one input.
func referenceOutput(t *testing.T, input []float32) []float32 {
	t.Helper()
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/predict/tiny", map[string]any{"input": input})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference predict = %d", resp.StatusCode)
	}
	var out struct {
		Output []float32 `json:"output"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Output
}

// TestBatchedPredictCoalesces checks that a batching server under
// concurrent fire produces the same outputs as the unbatched path and
// actually coalesces requests (at least one response reports a batch
// size > 1).
func TestBatchedPredictCoalesces(t *testing.T) {
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.05 * float32(i%11)
	}
	want := referenceOutput(t, input)

	_, ts := newTestServer(t, WithMaxBatch(4), WithFlushDeadline(25*time.Millisecond))
	// Warm one request through so the session pool is primed (the first
	// inference packs weights and is slow, which would otherwise let the
	// deadline lapse before peers arrive).
	_ = postJSON(t, ts.URL+"/predict/tiny", map[string]any{"input": input})

	const clients = 8
	var wg sync.WaitGroup
	batchSizes := make([]int, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"input": input})
			resp, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var out struct {
				Output    []float32 `json:"output"`
				BatchSize int       `json:"batch_size"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			batchSizes[i] = out.BatchSize
			for j := range out.Output {
				if out.Output[j] != want[j] {
					errs[i] = fmt.Errorf("output[%d] = %v, want %v", j, out.Output[j], want[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	coalesced := false
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if batchSizes[i] > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Log("no request was coalesced (timing-dependent); outputs still verified")
	}
}

// TestBatcherMixedDeadlinesStress hammers a batching server from many
// goroutines using a spread of per-request wait_ms deadlines and distinct
// inputs, checking every response against its per-input reference. Run
// with -race: this is the batcher's data-race and cross-request-bleed
// gauntlet.
func TestBatcherMixedDeadlinesStress(t *testing.T) {
	const inputsN = 3
	inputs := make([][]float32, inputsN)
	wants := make([][]float32, inputsN)
	for k := 0; k < inputsN; k++ {
		in := make([]float32, 3*8*8)
		for i := range in {
			in[i] = 0.01 * float32((i*(k+3))%17)
		}
		inputs[k] = in
		wants[k] = referenceOutput(t, in)
	}

	_, ts := newTestServer(t, WithMaxBatch(3), WithFlushDeadline(2*time.Millisecond))
	waits := []float64{0, 0.5, 2, 10} // ms; 0 = server default
	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % inputsN
				body := map[string]any{"input": inputs[k], "wait_ms": waits[(g*iters+i)%len(waits)]}
				b, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				var out struct {
					Output []float32 `json:"output"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				for j := range out.Output {
					if out.Output[j] != wants[k][j] {
						errc <- fmt.Errorf("goroutine %d iter %d: output diverged from reference for input %d", g, i, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestAddModelErrors(t *testing.T) {
	s := New()
	g := tinyModel(t)
	if err := s.AddModel("m", g, "no-such-backend", 1); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := s.AddModel("m", g, "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("m", g, "orpheus", 1); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	if err := s.AddModel("m2", g, "tflite-sim", 1); err == nil {
		t.Fatal("tflite-sim single-thread should fail compile")
	}
	_ = fmt.Sprint() // keep fmt for future expansion
}

// TestStatusForTypedErrors pins the errors.Is-based status derivation:
// request-shaped failures map to 400, overload to 429, shutdown to 503,
// everything else to 500, regardless of how deeply the sentinel is
// wrapped.
func TestStatusForTypedErrors(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", err)) }
	cases := []struct {
		err  error
		want int
	}{
		{wrap(runtime.ErrShapeMismatch), http.StatusBadRequest},
		{wrap(runtime.ErrBatchTooLarge), http.StatusBadRequest},
		{wrap(runtime.ErrUnknownInput), http.StatusBadRequest},
		{wrap(runtime.ErrUnknownOutput), http.StatusBadRequest},
		{wrap(runtime.ErrOverloaded), http.StatusTooManyRequests},
		{wrap(runtime.ErrClosed), http.StatusServiceUnavailable},
		{wrap(runtime.ErrPlanPanic), http.StatusInternalServerError},
		{&runtime.PlanPanicError{Model: "m", Node: "n", Op: "Conv", Value: "boom"}, http.StatusInternalServerError},
		{context.Canceled, http.StatusInternalServerError},
		{fmt.Errorf("kernel exploded"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestImmediateFlushMode checks WithFlushDeadline(0): the server batches
// opportunistically (only what is already queued) and still produces
// reference-identical outputs under concurrent fire.
func TestImmediateFlushMode(t *testing.T) {
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.03 * float32(i%7)
	}
	want := referenceOutput(t, input)

	_, ts := newTestServer(t, WithMaxBatch(4), WithFlushDeadline(0))
	// A lone request must not wait for peers that never come.
	start := time.Now()
	resp := postJSON(t, ts.URL+"/predict/tiny", map[string]any{"input": input})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lone immediate predict = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone immediate predict took %v", elapsed)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"input": input})
			r, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Body.Close()
			var out struct {
				Output    []float32 `json:"output"`
				BatchSize int       `json:"batch_size"`
			}
			if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
				errs[i] = err
				return
			}
			if out.BatchSize < 1 || out.BatchSize > 4 {
				errs[i] = fmt.Errorf("batch_size %d outside 1..4", out.BatchSize)
				return
			}
			for j := range out.Output {
				if out.Output[j] != want[j] {
					errs[i] = fmt.Errorf("output diverged at %d", j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

// TestCloseDrainsBatchedRequests asserts the graceful-drain contract of
// Server.Close over the runtime batcher: requests racing the shutdown
// either complete with correct outputs or fail with the 503 the contract
// maps shutdown to — never hang, never return garbage.
func TestCloseDrainsBatchedRequests(t *testing.T) {
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.02 * float32(i%5)
	}
	want := referenceOutput(t, input)

	s, ts := newTestServer(t, WithMaxBatch(4), WithFlushDeadline(5*time.Millisecond))
	const clients = 8
	var wg sync.WaitGroup
	type result struct {
		status int
		out    []float32
	}
	results := make([]result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(map[string]any{"input": input})
			r, err := http.Post(ts.URL+"/predict/tiny", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Body.Close()
			results[i].status = r.StatusCode
			var out struct {
				Output []float32 `json:"output"`
			}
			_ = json.NewDecoder(r.Body).Decode(&out)
			results[i].out = out.Output
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: transport error %v", i, errs[i])
		}
		switch results[i].status {
		case http.StatusOK:
			for j := range results[i].out {
				if results[i].out[j] != want[j] {
					t.Errorf("client %d: drained output diverged at %d", i, j)
				}
			}
		case http.StatusServiceUnavailable:
			// Arrived after the drain: typed ErrClosed → 503 per contract.
		default:
			t.Errorf("client %d: status %d, want 200 or 503", i, results[i].status)
		}
	}
}

// TestAddModelRejectsMultiIO pins the single-I/O contract of the HTTP
// wire format.
func TestAddModelRejectsMultiIO(t *testing.T) {
	g := graph.New("two-out")
	x, _ := g.Input("input", []int{1, 4})
	a, _ := g.Add("Relu", "a", nil, x)
	m, _ := g.Add("Softmax", "b", nil, x)
	_ = g.MarkOutput(a)
	_ = g.MarkOutput(m)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.AddModel("two-out", g, "orpheus", 1); err == nil {
		t.Fatal("multi-output model accepted by the single-I/O HTTP contract")
	}
}
