// Package serve embeds Orpheus behind an HTTP API — the deployment role
// the paper assigns to its Python bindings ("embedding in other
// experimental workflows"), done the Go way with net/http. A Server
// hosts one or more compiled sessions in a Registry and exposes:
//
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness: drain state and queue saturation
//	GET  /models                   loaded models with shapes, priorities and footprints
//	POST /predict/{model}          one sample in → prediction out
//	POST /models/{model}/predict   the same endpoint, REST-style path
//	POST /profile/{model}          same input → per-layer timing breakdown (JSON only)
//
// Predict speaks two body formats, negotiated per request:
//
//   - application/json (the default): {"input": [...], "topk": n,
//     "wait_ms": f} → {"output": [...], "shape": ..., "topk": ...}.
//   - application/x-orpheus-tensor: the binary wire format of
//     internal/wire — one encoded float32 sample as the raw body, with
//     ?topk= and ?wait_ms= as query parameters. Decoding a binary body
//     costs microseconds and no steady-state allocations, against
//     hundreds of microseconds of JSON parsing for a CIFAR-sized sample.
//
// The response format follows the Accept header when it names one of the
// two types, and mirrors the request format otherwise. Binary responses
// carry the metadata in X-Orpheus-Batch-Size, X-Orpheus-Latency-Ms and
// X-Orpheus-TopK headers. Error responses are always JSON. Any other
// Content-Type is rejected with 415 before the body is read.
//
// Inputs are one sample of the model's input shape — a flat row-major
// float32 array in JSON, an encoded tensor of matching volume in binary;
// the handler validates before execution so malformed clients get a 400,
// not a panic. Error statuses are uniform across endpoints and derived
// from the runtime's typed error set with errors.Is (see statusFor):
// unknown model → 404, malformed body or input → 400, shed by admission
// control → 429 with a Retry-After estimate, graceful shutdown → 503
// with Retry-After, execution failure (including a recovered plan-step
// panic) → 500.
//
// The server degrades instead of falling over: WithQueueDepth bounds each
// model's batching queue, WithMaxInflight caps concurrent executions
// server-wide — tiered by WithModelPriority so low-priority models shed
// first (see Registry) — WithRequestTimeout bounds execution time (not
// just queue wait), and a plan step that panics fails only its own
// request — the poisoned session is quarantined, never pooled, and the
// process stays up. See docs/SERVE.md ("Overload behaviour").
//
// Servers created with WithMaxBatch(n > 1) batch dynamically: concurrent
// /predict requests to one model are coalesced into a single batched
// Session.Run by a runtime.Batcher (flushing when the batch is full or
// after a small deadline, default 2ms), so under load every packed weight
// panel is read once per batch instead of once per request. Binary bodies
// are decoded straight into the executing session's staging row
// (Batcher.SubmitStaged, or runtime.Session.Staging when unbatched) —
// they are never copied through an intermediate slice. Requests can cap
// their own wait with wait_ms; each request's queue slot is tied to its
// http.Request context, so a disconnected client is dropped before its
// sample is ever staged. /profile always runs solo, since its per-layer
// timings describe a single inference.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/wire"
)

// DefaultFlushDeadline is how long a lone request waits for batch peers
// before the batcher flushes it through on its own.
const DefaultFlushDeadline = runtime.DefaultFlushDeadline

// Entry is one hosted model. Requests are served concurrently: each
// in-flight request (or batch of requests) borrows a session from the
// entry's pool, so N clients hitting one model get private arenas over one
// shared plan (and one shared set of packed weights) instead of queueing
// on a mutex. An Entry is immutable once its Registry.Add returns;
// handlers that hold one keep serving it even while it is being removed
// from the registry.
type Entry struct {
	// Name is the model's registry key and URL path segment.
	Name string
	// Backend names the backend the model was compiled under.
	Backend string
	// nodes is the hosted graph's node count; the entry keeps no
	// reference to the graph itself, so it does not pin its weights.
	nodes    int
	sessions *runtime.SessionPool

	inShape1 []int // input shape of a single sample
	perVol   int   // values per sample
	batcher  *runtime.Batcher

	priority int // shedding priority class (higher = shed later)

	// admitLimit is the in-flight level at which this model starts
	// shedding, derived from the priority tiering (math.MaxInt64 when no
	// cap is set). It is recomputed whenever the model set changes.
	admitLimit atomic.Int64

	// maxWireLen bounds an encoded request body for this model: the
	// max-rank header plus one sample's payload.
	maxWireLen int
	// maxJSONLen bounds a JSON request body for this model: 64 bytes per
	// input value, room for any float formatting, plus 4 KiB for the
	// other fields and whitespace.
	maxJSONLen int64
	// bufs pools request/response wire buffers (*[]byte of maxWireLen,
	// possibly grown by a large response) so the binary path reads,
	// decodes and encodes without per-request allocations.
	bufs sync.Pool
}

// Priority reports the model's shedding priority class.
func (e *Entry) Priority() int { return e.priority }

// getBuf borrows a wire buffer sized for one encoded sample.
func (e *Entry) getBuf() *[]byte {
	if p, ok := e.bufs.Get().(*[]byte); ok {
		return p
	}
	b := make([]byte, e.maxWireLen)
	return &b
}

// putBuf returns a borrowed wire buffer to the pool.
func (e *Entry) putBuf(p *[]byte) { e.bufs.Put(p) }

// Server hosts compiled models behind an http.Handler.
type Server struct {
	reg *Registry

	// inflightN gauges concurrent executions against the priority-tiered
	// admission limits (see Registry); it replaces a flat semaphore so
	// each model can have its own threshold over one shared count.
	inflightN atomic.Int64

	// draining flips once Close begins; admission then rejects new
	// requests with ErrClosed (→ 503 + Retry-After) so load balancers
	// stop routing to a node that is shutting down.
	draining atomic.Bool

	shed   atomic.Int64 // requests rejected with 429 (queue or in-flight cap)
	panics atomic.Int64 // requests failed by a recovered plan-step panic
}

// New returns an empty server.
func New(opts ...Option) *Server {
	return &Server{reg: NewRegistry(opts...)}
}

// Registry exposes the server's model registry for dynamic add/remove.
func (s *Server) Registry() *Registry { return s.reg }

// AddModel compiles g under the named backend and hosts it as name; see
// Registry.Add. Per-model options override the server-wide policy.
func (s *Server) AddModel(name string, g *graph.Graph, backendName string, workers int, opts ...ModelOption) error {
	return s.reg.Add(name, g, backendName, workers, opts...)
}

// RemoveModel unhosts the named model and drains its batcher; see
// Registry.Remove.
func (s *Server) RemoveModel(name string) error {
	return s.reg.Remove(name)
}

// Close drains the server gracefully: the draining flag flips first, so
// new requests are rejected with ErrClosed (→ 503 + Retry-After, which
// tells load balancers to take the node out of rotation), then the
// batchers drain — requests already handed to a collector execute to
// completion and Close returns once in-flight batches have delivered.
func (s *Server) Close() {
	s.draining.Store(true)
	s.reg.close()
}

// Draining reports whether Close has begun; /readyz exposes it.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports how many requests are executing right now — the gauge
// the priority-tiered admission limits compare against.
func (s *Server) Inflight() int64 { return s.inflightN.Load() }

// ShedCount reports how many requests the server rejected with 429
// (queue-depth or in-flight cap). cmd/orpheus-serve logs it on shutdown.
func (s *Server) ShedCount() int64 { return s.shed.Load() }

// PanicCount reports how many requests failed on a recovered plan-step
// panic (each also quarantined its session).
func (s *Server) PanicCount() int64 { return s.panics.Load() }

// admit performs server-level admission for a request to e (nil counts
// against the full cap): a draining server rejects with ErrClosed, and a
// request past its model's priority-tiered admission limit is shed with
// ErrOverloaded. On success the caller must invoke the returned release
// when its execution finishes.
func (s *Server) admit(e *Entry) (release func(), err error) {
	if s.draining.Load() {
		return nil, fmt.Errorf("serve: draining: %w", runtime.ErrClosed)
	}
	capN := s.reg.cfg.inflightCap
	if capN <= 0 {
		return func() {}, nil
	}
	limit := int64(capN)
	if e != nil {
		limit = e.admitLimit.Load()
	}
	if n := s.inflightN.Add(1); n > limit {
		s.inflightN.Add(-1)
		if limit < int64(capN) {
			return nil, fmt.Errorf("serve: %d requests in flight over priority-%d admission limit %d (server cap %d): %w",
				n-1, e.priority, limit, capN, runtime.ErrOverloaded)
		}
		return nil, fmt.Errorf("serve: %d requests in flight (cap %d): %w", n-1, capN, runtime.ErrOverloaded)
	}
	return func() { s.inflightN.Add(-1) }, nil
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("POST /predict/{model}", s.handlePredict)
	mux.HandleFunc("POST /models/{model}/predict", s.handlePredict)
	mux.HandleFunc("POST /profile/{model}", s.handleProfile)
	return mux
}

// modelInfo is the /models response element. Batcher is present only on
// batching servers and snapshots the model's runtime.BatcherStats — the
// counters an operator watches to tune MaxBatch and the flush deadline.
// AdmitLimit is the in-flight level at which the model starts shedding
// (0 = no cap). ParamBytes is the weight memory the compiled plan holds:
// the constants it keeps as is plus the packed panels derived from the
// rest.
type modelInfo struct {
	Name       string            `json:"name"`
	Backend    string            `json:"backend"`
	InputShape []int             `json:"input_shape"`
	MaxBatch   int               `json:"max_batch"`
	Priority   int               `json:"priority"`
	AdmitLimit int64             `json:"admit_limit"`
	Nodes      int               `json:"nodes"`
	ParamBytes int64             `json:"param_bytes"`
	ArenaBytes int64             `json:"arena_bytes"`
	Batcher    *batcherStatsJSON `json:"batcher,omitempty"`
}

// batcherStatsJSON mirrors runtime.BatcherStats on the wire; the
// cumulative queued wait is reported in milliseconds.
type batcherStatsJSON struct {
	QueueDepth     int64   `json:"queue_depth"`
	Runs           int64   `json:"runs"`
	Requests       int64   `json:"requests"`
	FlushFull      int64   `json:"flush_full"`
	FlushDeadline  int64   `json:"flush_deadline"`
	FlushImmediate int64   `json:"flush_immediate"`
	FlushExplicit  int64   `json:"flush_explicit"`
	FlushClose     int64   `json:"flush_close"`
	QueuedWaitMs   float64 `json:"queued_wait_ms"`
	Rejected       int64   `json:"rejected"`
	Cancelled      int64   `json:"cancelled"`
	// WaitHistogramMs pairs each bucket's upper bound in milliseconds
	// (the final bucket, bound 0, is the unbounded overflow) with its
	// count — the latency shape behind the queued_wait_ms mean.
	WaitHistogramMs []waitBucketJSON `json:"wait_histogram_ms"`
}

// waitBucketJSON is one queued-wait histogram bucket on the wire.
type waitBucketJSON struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// waitHistogramJSON renders the fixed-bucket histogram with its bounds.
func waitHistogramJSON(hist [runtime.WaitBuckets]int64) []waitBucketJSON {
	out := make([]waitBucketJSON, runtime.WaitBuckets)
	for i, n := range hist {
		le := 0.0 // overflow bucket: no upper bound
		if i < len(runtime.WaitBucketBounds) {
			le = float64(runtime.WaitBucketBounds[i]) / 1e6
		}
		out[i] = waitBucketJSON{LeMs: le, Count: n}
	}
	return out
}

func batcherStats(b *runtime.Batcher) *batcherStatsJSON {
	if b == nil {
		return nil
	}
	st := b.Stats()
	return &batcherStatsJSON{
		QueueDepth:      st.QueueDepth,
		Runs:            st.Runs,
		Requests:        st.Requests,
		FlushFull:       st.FlushFull,
		FlushDeadline:   st.FlushDeadline,
		FlushImmediate:  st.FlushImmediate,
		FlushExplicit:   st.FlushExplicit,
		FlushClose:      st.FlushClose,
		QueuedWaitMs:    float64(st.QueuedWait) / 1e6,
		Rejected:        st.Rejected,
		Cancelled:       st.Cancelled,
		WaitHistogramMs: waitHistogramJSON(st.WaitHistogram),
	}
}

// readyModel is one model's readiness row: queue depth against its cap
// (0 = unbounded) and whether the queue is saturated right now.
type readyModel struct {
	Name       string `json:"name"`
	QueueDepth int64  `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Saturated  bool   `json:"saturated"`
}

// handleReadyz is the readiness probe: 200 while the server is accepting
// and no model's queue is saturated, 503 once Close has begun (drain) or
// any bounded queue is full. Liveness (/healthz) stays 200 through both —
// a draining or saturated process is still alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.snapshot()
	models := make([]readyModel, 0, len(entries))
	saturated := false
	queueCap := s.reg.cfg.queueDepth
	for _, e := range entries {
		rm := readyModel{Name: e.Name, QueueCap: queueCap}
		if e.batcher != nil {
			rm.QueueDepth = e.batcher.Stats().QueueDepth
			rm.Saturated = queueCap > 0 && rm.QueueDepth >= int64(queueCap)
		}
		saturated = saturated || rm.Saturated
		models = append(models, rm)
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case saturated:
		status, code = "overloaded", http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"draining": s.draining.Load(),
		"models":   models,
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.snapshot()
	infos := make([]modelInfo, 0, len(entries))
	for _, e := range entries {
		plan := e.sessions.Plan()
		limit := e.admitLimit.Load()
		if limit == math.MaxInt64 {
			limit = 0
		}
		infos = append(infos, modelInfo{
			Name:       e.Name,
			Backend:    e.Backend,
			InputShape: e.inShape1,
			MaxBatch:   plan.MaxBatch(),
			Priority:   e.priority,
			AdmitLimit: limit,
			Nodes:      e.nodes,
			ParamBytes: plan.WeightBytes() + plan.ConstBytes(),
			ArenaBytes: plan.ArenaBytes(),
			Batcher:    batcherStats(e.batcher),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

// BatcherStats returns the named model's batcher counters, or false when
// the model is not hosted or the server does not batch. cmd/orpheus-serve
// logs these on shutdown.
func (s *Server) BatcherStats(model string) (runtime.BatcherStats, bool) {
	e, ok := s.entry(model)
	if !ok || e.batcher == nil {
		return runtime.BatcherStats{}, false
	}
	return e.batcher.Stats(), true
}

// Quarantined returns how many poisoned sessions the named model's pool
// has dropped after plan-step panics, or false when the model is not
// hosted. cmd/orpheus-serve logs this on shutdown.
func (s *Server) Quarantined(model string) (int64, bool) {
	e, ok := s.entry(model)
	if !ok {
		return 0, false
	}
	return e.sessions.Quarantined(), true
}

// ModelNames lists the hosted models, sorted.
func (s *Server) ModelNames() []string { return s.reg.Names() }

// predictRequest is the JSON /predict and /profile request body. WaitMs
// caps how long the request waits to be batched with peers (0 means the
// server default flush deadline); it is ignored on unbatched servers and
// by /profile.
type predictRequest struct {
	Input  []float32 `json:"input"`
	TopK   int       `json:"topk,omitempty"`
	WaitMs float64   `json:"wait_ms,omitempty"`
}

// predictResponse is the JSON /predict response body. BatchSize reports
// how many requests shared the run that produced this output (1 when
// unbatched).
type predictResponse struct {
	Output    []float32 `json:"output"`
	Shape     []int     `json:"shape"`
	TopK      []int     `json:"topk,omitempty"`
	BatchSize int       `json:"batch_size,omitempty"`
	LatencyMs float64   `json:"latency_ms"`
}

// layerTimingJSON is one /profile breakdown row.
type layerTimingJSON struct {
	Layer    string  `json:"layer"`
	Op       string  `json:"op"`
	Kernel   string  `json:"kernel"`
	Ms       float64 `json:"ms"`
	GFlopsPS float64 `json:"gflops_per_s"`
}

func (s *Server) entry(name string) (*Entry, bool) {
	return s.reg.lookup(name)
}

// statusFor maps an execution error onto the wire contract with
// errors.Is over the typed error set: request-shaped failures — including
// malformed binary tensors — are the client's fault (400), shedding by
// admission control is 429 (retry the same node later), graceful shutdown
// is 503 (retry another node — the load-balancer signal that this one is
// draining), and everything else — a recovered plan-step panic, a
// cancelled request context, kernel failures — is a 500 the same way any
// aborted execution is. Unknown models are mapped to 404 before
// execution.
func statusFor(err error) int {
	switch {
	case errors.Is(err, runtime.ErrShapeMismatch),
		errors.Is(err, runtime.ErrBatchTooLarge),
		errors.Is(err, runtime.ErrUnknownInput),
		errors.Is(err, runtime.ErrUnknownOutput),
		errors.Is(err, wire.ErrFormat),
		errors.Is(err, wire.ErrTooLarge):
		return http.StatusBadRequest
	case errors.Is(err, runtime.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, runtime.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotHosted):
		return http.StatusNotFound
	default:
		// runtime.ErrPlanPanic, context.Canceled (the client is gone and
		// never reads the status) and kernel failures.
		return http.StatusInternalServerError
	}
}

// writeFailure maps err through statusFor and writes it, with the
// overload niceties: 429 and 503 carry a Retry-After (derived from the
// model's live batcher wait statistics when available), sheds and panics
// bump the server counters.
func (s *Server) writeFailure(w http.ResponseWriter, e *Entry, err error) {
	code := statusFor(err)
	switch code {
	case http.StatusTooManyRequests:
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(e))
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	if errors.Is(err, runtime.ErrPlanPanic) {
		s.panics.Add(1)
	}
	writeError(w, code, err)
}

// retryAfterSeconds turns the model's live queue-wait estimate into the
// integer seconds the Retry-After header wants, with a floor of 1 — the
// smallest honest hint the header can express.
func retryAfterSeconds(e *Entry) string {
	if e == nil || e.batcher == nil {
		return "1"
	}
	secs := int64((e.batcher.EstimateWait() + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// decodeJSONRequest decodes and validates a JSON predict body for e with
// the uniform status mapping: malformed (anything but whitespace after the
// one JSON value included, as validateWireBody rejects trailing bytes
// after a wire message), oversize (more than e.maxJSONLen bytes, which are
// all it reads) or wrong-length input → 400. It writes the error response
// itself and returns ok=false when the request is done.
func (s *Server) decodeJSONRequest(w http.ResponseWriter, r *http.Request, e *Entry) (predictRequest, bool) {
	var req predictRequest
	body := &io.LimitedReader{R: r.Body, N: e.maxJSONLen}
	dec := json.NewDecoder(body)
	err := dec.Decode(&req)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		if body.N == 0 {
			err = fmt.Errorf("%w: JSON body exceeds %d bytes (one %s sample)",
				wire.ErrTooLarge, e.maxJSONLen, tensor.ShapeString(e.inShape1))
		} else {
			err = fmt.Errorf("invalid JSON: %w", err)
		}
		writeError(w, http.StatusBadRequest, err)
		return predictRequest{}, false
	}
	if len(req.Input) != e.perVol {
		writeError(w, http.StatusBadRequest, fmt.Errorf("input has %d values, model %s wants %d (%s): %w",
			len(req.Input), e.Name, e.perVol, tensor.ShapeString(e.inShape1), runtime.ErrShapeMismatch))
		return predictRequest{}, false
	}
	return req, true
}

// lookupModel resolves the request's model with the uniform status
// mapping (unknown → 404), writing the error itself.
func (s *Server) lookupModel(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	e, ok := s.entry(r.PathValue("model"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("model %q not hosted", r.PathValue("model")))
		return nil, false
	}
	return e, true
}

// requestCtx derives a request's execution context: the client's context,
// additionally bounded by the server's request timeout when set — so a
// wedged or slow run is cancelled at the next plan-step boundary instead
// of holding its session (and admission slot) forever.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.reg.cfg.reqTimeout
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// predict runs one sample for e: fill writes it into the staging row of
// the session that executes it — a batch row when e batches, the
// session's Staging(1) otherwise — and the output comes back as a copy
// private to the request.
func (e *Entry) predict(ctx context.Context, fill func(dst []float32), wait time.Duration) (data []float32, shape []int, batch int, err error) {
	if e.batcher != nil {
		res, err := e.batcher.SubmitStaged(ctx, fill, wait)
		return res.Output, res.Shape, res.BatchSize, err
	}
	sess := e.sessions.Get()
	in := sess.Staging(1)
	fill(in.Data())
	out, err := sess.RunOne(ctx, in)
	if err == nil {
		data, shape = append([]float32(nil), out.Data()...), out.Shape()
	}
	e.sessions.Put(sess)
	return data, shape, 1, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	binReq, ferr := requestFormat(r)
	if ferr != nil {
		writeError(w, http.StatusUnsupportedMediaType, ferr)
		return
	}
	binResp := responseWantsBinary(r, binReq)
	release, err := s.admit(e)
	if err != nil {
		// Shed before decoding: a saturated server must not spend CPU
		// parsing bodies it will reject anyway.
		s.writeFailure(w, e, err)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	var (
		topk int
		wait time.Duration
		fill func(dst []float32)
	)
	if binReq {
		topk, wait, err = binaryParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		buf := e.getBuf()
		defer e.putBuf(buf)
		payload, err := readWireBody(r.Body, e, *buf)
		if err != nil {
			s.writeFailure(w, e, err)
			return
		}
		// Zero-copy staging: the wire payload is decoded straight into the
		// executing session's staging row. The pooled buffer stays alive
		// until predict returns, which is after delivery.
		fill = func(dst []float32) { _ = wire.Float32Into(dst, payload) }
	} else {
		req, ok := s.decodeJSONRequest(w, r, e)
		if !ok {
			return
		}
		topk = req.TopK
		wait = time.Duration(req.WaitMs * float64(time.Millisecond))
		fill = func(dst []float32) { copy(dst, req.Input) }
	}
	data, shape, batch, err := e.predict(ctx, fill, wait)
	if err != nil {
		s.writeFailure(w, e, err)
		return
	}
	var topkIdx []int
	if topk > 0 {
		topkIdx = tensor.FromSlice(data, shape...).TopK(topk)
	}
	if binResp {
		writeWireResponse(w, e, data, shape, batch, time.Since(start), topkIdx)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{
		Output:    data,
		Shape:     shape,
		TopK:      topkIdx,
		BatchSize: batch,
		LatencyMs: float64(time.Since(start)) / 1e6,
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	if binReq, ferr := requestFormat(r); ferr != nil {
		writeError(w, http.StatusUnsupportedMediaType, ferr)
		return
	} else if binReq {
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("profile speaks JSON only; POST %s bodies to /predict", ContentTypeTensor))
		return
	}
	release, err := s.admit(e)
	if err != nil {
		s.writeFailure(w, e, err)
		return
	}
	defer release()
	req, ok := s.decodeJSONRequest(w, r, e)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	sess := e.sessions.Get()
	in := map[string]*tensor.Tensor{e.sessions.Plan().InputDescs()[0].Name: tensor.FromSlice(req.Input, e.inShape1...)}
	_, timings, err := sess.RunProfiled(ctx, in)
	e.sessions.Put(sess)
	if err != nil {
		s.writeFailure(w, e, err)
		return
	}
	rows := make([]layerTimingJSON, len(timings))
	for i, lt := range timings {
		var gf float64
		if lt.Duration > 0 {
			gf = float64(lt.Flops) / float64(lt.Duration.Nanoseconds())
		}
		rows[i] = layerTimingJSON{
			Layer:    lt.Node.Name,
			Op:       lt.Node.Op,
			Kernel:   lt.Kernel,
			Ms:       float64(lt.Duration) / 1e6,
			GFlopsPS: gf,
		}
	}
	writeJSON(w, http.StatusOK, rows)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	msg := err.Error()
	// Keep internal prefixes out of client-facing messages.
	msg = strings.TrimPrefix(msg, "serve: ")
	writeJSON(w, code, map[string]string{"error": msg})
}
