package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"sync"
	"time"

	"orpheus/internal/serve"
	"orpheus/internal/wire"
)

// Fixed sizes of the serving plane's traced phase.
const (
	tracedRequests = 1000 // loopback requests per client, with spans
	handlerCalls   = 2000 // Handler().ServeHTTP calls without a socket
	jsonCalls      = 200  // the same, with JSON bodies
	codecReps      = 2000 // wire encode / decode calls
)

// memWriter is the least http.ResponseWriter: the handler is timed
// without a socket, and without a recorder's own allocations.
type memWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.hdr }
func (m *memWriter) WriteHeader(code int)        { m.status = code }
func (m *memWriter) Write(b []byte) (int, error) { return m.body.Write(b) }
func (m *memWriter) reset() {
	clear(m.hdr)
	m.status = http.StatusOK
	m.body.Reset()
}

// tracedRequest is the client-side timeline of one loopback request.
type tracedRequest struct{ start, encoded, replied, decoded time.Time }

// servingPlane measures wire, serve and the batcher on the serve-http
// instance. ref is the untraced loopback reference phase.
func (p *layerProbe) servingPlane(s *serveInstance, ref phase) error {
	model := p.w.model
	in := p.e.pool[0]

	// wire: the request body's codec, each direction on its own.
	var body []byte
	p.out["wire.encode_us"] = 1e3 * median(timeReps(codecReps, codecReps, 0, func() {
		body = wire.AppendTensor(body[:0], in.in.Data(), in.in.Shape())
	}))
	sample := make([]float32, in.in.Size())
	var codecErr error
	p.out["wire.decode_us"] = 1e3 * median(timeReps(codecReps, codecReps, 0, func() {
		_, payload, err := wire.ParseMessage(body, 0)
		if err == nil {
			err = wire.Float32Into(sample, payload)
		}
		if err != nil {
			codecErr = err
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	// Loopback requests with client-side spans, both clients at once, and
	// the batcher's counters across them.
	before, _ := s.srv.BatcherStats(model)
	shedBefore := s.srv.ShedCount()
	var timelines [serveClients][]tracedRequest
	var errs [serveClients]error
	var outs [serveClients][][]float32
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &s.cl[c]
			for k := 0; k < tracedRequests; k++ {
				in := p.e.pool[(k*serveClients+c)%len(p.e.pool)]
				var t tracedRequest
				t.start = time.Now()
				cl.body = wire.AppendTensor(cl.body[:0], in.in.Data(), in.in.Shape())
				t.encoded = time.Now()
				err := s.post(cl)
				t.replied = time.Now()
				var out []float32
				if err == nil {
					out, err = decodeWire(cl, cl.resp.Bytes())
				}
				t.decoded = time.Now()
				if err != nil {
					errs[c] = err
					return
				}
				timelines[c] = append(timelines[c], t)
				outs[c] = append(outs[c], append([]float32(nil), out...))
			}
		}(c)
	}
	wg.Wait()
	after, _ := s.srv.BatcherStats(model)
	for c := 0; c < serveClients; c++ {
		if errs[c] != nil {
			return errs[c]
		}
		for k, t := range timelines[c] {
			p.check(outs[c][k], p.e.pool[(k*serveClients+c)%len(p.e.pool)])
			op := p.tr.newOp()
			root := p.tr.add(0, op, "request", t.start, t.decoded)
			p.tr.add(root, op, "wire.encode", t.start, t.encoded)
			p.tr.add(root, op, "http.roundtrip", t.encoded, t.replied)
			p.tr.add(root, op, "wire.decode", t.replied, t.decoded)
		}
	}
	p.out["wire.bytes_per_req"] = float64(len(s.cl[0].body) + s.cl[0].resp.Len())
	p.out["serve.shed"] = float64(s.srv.ShedCount() - shedBefore)
	if reqs := after.Requests - before.Requests; reqs > 0 && after.Runs > before.Runs {
		p.out["runtime.batcher_queue_us"] = float64((after.QueuedWait - before.QueuedWait).Microseconds()) / float64(reqs)
		p.out["runtime.batch_mean"] = float64(reqs) / float64(after.Runs-before.Runs)
	}

	// The handler called directly: no socket, no net/http server loop.
	handler := s.srv.Handler()
	w := &memWriter{hdr: http.Header{}}
	url := "/predict/" + model
	call := func(contentType string, body []byte) error {
		req, err := http.NewRequestWithContext(p.e.ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("handler: status %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
		}
		return nil
	}
	var callErr error
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	starts := make([]time.Time, 0, handlerCalls)
	handlerMs := timeReps(handlerCalls, handlerCalls, 0, func() {
		starts = append(starts, time.Now())
		if err := call(serve.ContentTypeTensor, body); err != nil {
			callErr = err
		}
	})
	goruntime.ReadMemStats(&m1)
	if callErr != nil {
		return callErr
	}
	for i, t0 := range starts {
		p.tr.add(0, p.tr.newOp(), "serve.handler", t0, t0.Add(time.Duration(handlerMs[i]*1e6)))
	}
	var cl wireClient
	out, err := decodeWire(&cl, w.body.Bytes())
	if err != nil {
		return err
	}
	p.check(out, in)
	p.out["serve.handler_us"] = 1e3 * median(handlerMs)
	// Includes building the http.Request.
	p.out["serve.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / handlerCalls

	// The other codec through the same handler.
	jsonBody, err := json.Marshal(map[string]any{"input": in.in.Data()})
	if err != nil {
		return err
	}
	p.out["serve.json_roundtrip_us"] = 1e3 * median(timeReps(jsonCalls, jsonCalls, 0, func() {
		if err := call("application/json", jsonBody); err != nil {
			callErr = err
		}
	}))
	if callErr != nil {
		return callErr
	}
	var reply struct {
		Output []float32 `json:"output"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &reply); err != nil {
		return err
	}
	p.check(reply.Output, in)

	loopback := sortedCopy(ref.latMs)
	p.out["serve.p99_us"] = 1e3 * percentile(loopback, 0.99)
	p.out["serve.http_overhead_us"] = 1e3*percentile(loopback, 0.5) - p.out["serve.handler_us"]
	p.out["serve.self_us"] = p.out["serve.handler_us"] - p.out["runtime.run_us"] -
		p.out["runtime.batcher_queue_us"] - p.out["wire.decode_us"]
	return nil
}
