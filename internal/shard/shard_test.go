package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/faultinject"
	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// stageModel builds a small CNN with enough layers to split three ways
// after optimisation, cheap enough for stress loops.
func stageModel(t testing.TB, name string) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(61)
	g := graph.New(name)
	x, _ := g.Input("input", []int{1, 3, 8, 8})
	w1, _ := g.Const("w1", tensor.HeNormal(r, 8, 3, 3, 3))
	c1, _ := g.Add("Conv", "conv1", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w1)
	r1, _ := g.Add("Relu", "relu1", nil, c1)
	w2, _ := g.Const("w2", tensor.HeNormal(r, 8, 8, 3, 3))
	c2, _ := g.Add("Conv", "conv2", graph.Attrs{"pads": []int{1, 1, 1, 1}}, r1, w2)
	r2, _ := g.Add("Relu", "relu2", nil, c2)
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, r2)
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

// startStages builds and serves an n-stage pipeline for g on loopback,
// returning the servers in pipeline order and their addresses. mod, when
// non-nil, adjusts each stage's Config before New.
func startStages(t testing.TB, g *graph.Graph, n int, mod func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := Config{Graph: g, Index: i, Count: n}
		if i < n-1 {
			cfg.Next = addrs[i+1]
		}
		if mod != nil {
			mod(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		ln := lns[i]
		go func() { _ = s.Serve(ln) }()
		t.Cleanup(func() { _ = s.Close() })
	}
	return servers, addrs
}

// refRun executes g single-process and returns its sole output.
func refRun(t testing.TB, g *graph.Graph, input []float32) []float32 {
	t.Helper()
	be, err := backend.ByName("orpheus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.PrepareWith(g, backend.PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	tin := tensor.New(g.Inputs[0].Shape...)
	copy(tin.Data(), input)
	outs, err := sess.Run(context.Background(), map[string]*tensor.Tensor{g.Inputs[0].Name: tin})
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), outs[g.Outputs[0].Name].Data()...)
}

func sampleInput(vol int, seed int) []float32 {
	in := make([]float32, vol)
	for i := range in {
		in[i] = float32((i*7+seed*13)%23)*0.1 - 1.1
	}
	return in
}

func volume(shape []int) int {
	v := 1
	for _, s := range shape {
		v *= s
	}
	return v
}

func argmax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// TestPipelineEqualityTiny pins the core contract on a small model:
// outputs through 2- and 3-stage pipelines equal single-process outputs
// at tolerance 0, across several distinct inputs.
func TestPipelineEqualityTiny(t *testing.T) {
	g := stageModel(t, "tiny-eq")
	vol := volume(g.Inputs[0].Shape)
	for _, stages := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d-stage", stages), func(t *testing.T) {
			_, addrs := startStages(t, g, stages, nil)
			p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = p.Close() })
			for seed := 0; seed < 4; seed++ {
				input := sampleInput(vol, seed)
				want := refRun(t, g, input)
				got, err := p.Predict(context.Background(), input)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("output length %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: output[%d] = %v, want %v (tolerance 0)", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPipelineInt8Wire pins the quantized transport: boundary
// activations cross as u8 frames and the pipeline's top-1 class agrees
// with single-process fp32.
func TestPipelineInt8Wire(t *testing.T) {
	g := stageModel(t, "tiny-int8")
	vol := volume(g.Inputs[0].Shape)
	_, addrs := startStages(t, g, 2, func(i int, cfg *Config) { cfg.Int8Wire = true })
	p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	for seed := 0; seed < 4; seed++ {
		input := sampleInput(vol, seed)
		want := refRun(t, g, input)
		got, err := p.Predict(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		if argmax(got) != argmax(want) {
			t.Fatalf("seed %d: int8-wire top-1 %d, fp32 top-1 %d", seed, argmax(got), argmax(want))
		}
	}
}

// TestPipelineEqualityZoo is the acceptance battery: every zoo model,
// split two ways, must produce single-process outputs at tolerance 0
// over fp32 frames and top-1-equal outputs over int8 frames.
func TestPipelineEqualityZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo equality battery is slow; run without -short")
	}
	for _, name := range zoo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := zoo.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			vol := volume(g.Inputs[0].Shape)
			input := sampleInput(vol, 3)
			want := refRun(t, g, input)

			_, addrs := startStages(t, g, 2, nil)
			p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Predict(context.Background(), input)
			if err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fp32 output[%d] = %v, want %v (tolerance 0)", i, got[i], want[i])
				}
			}

			_, addrs = startStages(t, g, 2, func(i int, cfg *Config) { cfg.Int8Wire = true })
			p, err = Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			got, err = p.Predict(context.Background(), input)
			if err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
			if argmax(got) != argmax(want) {
				t.Fatalf("int8-wire top-1 %d, fp32 top-1 %d", argmax(got), argmax(want))
			}
		})
	}
}

// TestPipelineOverlap pins the point of the pipeline: with one op per
// stage slowed by an injected delay (so compute dominates and stages
// are balanced), depth ≥ nstages must beat depth 1 by a clear margin —
// the stages genuinely overlap rather than taking turns.
func TestPipelineOverlap(t *testing.T) {
	g := stageModel(t, "tiny-overlap")
	vol := volume(g.Inputs[0].Shape)
	servers, addrs := startStages(t, g, 3, nil)
	// Balance the stages by construction: each stage owns exactly one of
	// these ops (conv1 / fc / prob), so every request costs one 10ms
	// delay per stage and the ideal overlap is ~3x.
	delayOps := []string{"Conv", "Dense", "Softmax"}
	for i, s := range servers {
		s.Plan().SetFault(faultinject.New(1, &faultinject.Rule{
			Op: delayOps[i], Action: faultinject.ActDelay, Delay: 10 * time.Millisecond,
		}))
	}
	input := sampleInput(vol, 1)
	const n = 12

	run := func(depth int, concurrent bool) time.Duration {
		p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := p.Predict(context.Background(), input); err != nil { // warm the links
			t.Fatal(err)
		}
		start := time.Now()
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := p.Predict(context.Background(), input); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < n; i++ {
				if _, err := p.Predict(context.Background(), input); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}

	sequential := run(1, false)
	overlapped := run(6, true)
	// Three roughly balanced stages give ~3× steady-state headroom;
	// require 1.5× so the assertion survives loaded CI boxes.
	if overlapped >= sequential*2/3 {
		t.Fatalf("depth 6 took %v vs %v at depth 1 — stages do not overlap", overlapped, sequential)
	}
	t.Logf("sequential %v, overlapped %v (%.1fx)", sequential, overlapped,
		float64(sequential)/float64(overlapped))
	for i, s := range servers {
		if got := s.Stats().Processed; got < int64(n) {
			t.Fatalf("stage %d processed %d requests, want ≥ %d", i, got, n)
		}
	}
}

// TestPipelineStressRace hammers a 3-stage pipeline with concurrent
// submits while the middle stage panics probabilistically and both
// driver links get severed mid-flight. Every request must resolve — an
// output or a typed error — with no deadlock and no race (-race pins
// the latter).
func TestPipelineStressRace(t *testing.T) {
	g := stageModel(t, "tiny-stress")
	vol := volume(g.Inputs[0].Shape)
	servers, addrs := startStages(t, g, 3, func(i int, cfg *Config) {
		cfg.StageTimeout = 5 * time.Second
	})
	// The middle stage panics on ~10% of its conv steps.
	servers[1].Plan().SetFault(faultinject.New(7, &faultinject.Rule{
		Op: "Conv", Probability: 0.1, Action: faultinject.ActPanic,
	}))
	p, err := Dial(context.Background(), PipelineConfig{
		Model: g.Name, Addrs: addrs, Depth: 6, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	const workers, perWorker = 8, 15
	var ok, remote, transport atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				input := sampleInput(vol, w*perWorker+i)
				_, err := p.Predict(context.Background(), input)
				switch {
				case err == nil:
					ok.add(1)
				case errors.Is(err, ErrRemote):
					remote.add(1)
					var re *RemoteError
					if !errors.As(err, &re) || re.Shard != 1 || re.Code != "panic" {
						t.Errorf("remote error not attributed to stage 1 panic: %v", err)
					}
				case errors.Is(err, ErrPeerClosed) || errors.Is(err, ErrDraining) || errors.Is(err, context.DeadlineExceeded):
					transport.add(1)
				default:
					t.Errorf("untyped pipeline error: %v", err)
				}
			}
		}()
	}
	// Sever both driver links mid-stress; send() and recvLoop must
	// reconnect and later requests succeed.
	time.Sleep(50 * time.Millisecond)
	p.mu.Lock()
	if p.feed != nil {
		_ = p.feed.c.Close()
	}
	if p.collect != nil {
		_ = p.collect.c.Close()
	}
	p.mu.Unlock()
	wg.Wait()

	if ok.load() == 0 {
		t.Fatal("no request succeeded under fault injection")
	}
	if remote.load() == 0 {
		t.Fatal("injected panics never surfaced as remote errors")
	}
	t.Logf("ok=%d remote=%d transport=%d reconnects=%d quarantined stage1=%d",
		ok.load(), remote.load(), transport.load(), p.Stats().Reconnects, servers[1].Stats().Errors)
}

// atomic64 is a tiny counter wrapper keeping the stress test readable.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestHandshakeRejections drives the pairing rules: wrong model, wrong
// stage count, wrong version and a collect against a non-terminal stage
// must all be refused with a handshake error naming the cause.
func TestHandshakeRejections(t *testing.T) {
	g := stageModel(t, "tiny-hs")
	_, addrs := startStages(t, g, 2, nil)
	cases := []struct {
		name string
		h    hello
		addr string
	}{
		{"wrong-model", hello{Version: ProtocolVersion, Model: "other", Role: "feed", Count: 2}, addrs[0]},
		{"wrong-count", hello{Version: ProtocolVersion, Model: g.Name, Role: "feed", Count: 3}, addrs[0]},
		{"wrong-version", hello{Version: 99, Model: g.Name, Role: "feed", Count: 2}, addrs[0]},
		{"bad-role", hello{Version: ProtocolVersion, Model: g.Name, Role: "observe", Count: 2}, addrs[0]},
		{"collect-on-nonterminal", hello{Version: ProtocolVersion, Model: g.Name, Role: "collect", Count: 2}, addrs[0]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fc := newFrameConn(c, 0)
			h := tc.h
			if err := handshake(fc, &h, nil); !errors.Is(err, ErrHandshake) {
				t.Fatalf("handshake error = %v, want ErrHandshake", err)
			}
		})
	}
	// And the happy path still works after all those refusals.
	p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
}

// TestPipelineDrain pins graceful shutdown: Close refuses new work with
// ErrDraining and in-flight requests resolve.
func TestPipelineDrain(t *testing.T) {
	g := stageModel(t, "tiny-drain")
	vol := volume(g.Inputs[0].Shape)
	_, addrs := startStages(t, g, 2, nil)
	p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(context.Background(), sampleInput(vol, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(context.Background(), sampleInput(vol, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Predict error = %v, want ErrDraining", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestPipelineCloseDuringRedial pins the shutdown race: a Close that runs
// while recvLoop is re-dialling the collect link must return, which it
// can only do if the link that dial produces is closed rather than
// installed after Close has closed the links it could see. The stage is a
// fake that drops the first collect link and holds the second one's
// welcome until Close is waiting for recvLoop.
func TestPipelineCloseDuringRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	redialing, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
	})
	go func() {
		desc := []TensorDesc{{Name: "x", Shape: []int{1}}}
		for collects := 0; ; {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			fc := newFrameConn(c, 0)
			var h hello
			if ft, payload, err := fc.readFrame(); err != nil || ft != ftHello || jsonUnmarshal(payload, &h) != nil {
				return
			}
			if h.Role == "collect" {
				if collects++; collects == 2 {
					close(redialing)
					<-release
				}
			}
			_ = fc.writeJSON(ftWelcome, welcome{Version: ProtocolVersion, Model: h.Model, Count: 1, Inputs: desc, Outputs: desc})
			if h.Role == "collect" && collects == 1 {
				_ = c.Close()
			}
		}
	}()
	p, err := Dial(context.Background(), PipelineConfig{Model: "fake", Addrs: []string{ln.Addr().String()}, DialBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-redialing:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the driver never re-dialled the dropped collect link")
	}
	closed := make(chan struct{})
	go func() {
		_ = p.Close()
		close(closed)
	}()
	<-p.quit // Close has closed every published link and waits for recvLoop
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: the link re-dialled during Close was installed after it")
	}
}

// TestPipelineIdleDeadline pins the collect link's read deadline: a
// pipeline left idle for several Timeouts keeps its link — an idle read
// that expires is not a lost peer — and still serves and closes.
func TestPipelineIdleDeadline(t *testing.T) {
	g := stageModel(t, "tiny-idle")
	vol := volume(g.Inputs[0].Shape)
	_, addrs := startStages(t, g, 2, nil)
	const timeout = 250 * time.Millisecond
	p, err := Dial(context.Background(), PipelineConfig{Model: g.Name, Addrs: addrs, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(3 * timeout)
		}
		if _, err := p.Predict(context.Background(), sampleInput(vol, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Stats().Reconnects; n != 0 {
		t.Fatalf("idle pipeline re-dialled %d times", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameValidation pins the frame layer's canonical-encoding rules.
func TestFrameValidation(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	fc := newFrameConn(server, 1024)
	errCh := make(chan error, 1)
	readOne := func() error {
		_, _, err := fc.readFrame()
		return err
	}
	// Bad magic.
	go func() { errCh <- readOne() }()
	_, _ = client.Write([]byte{'X', 'R', 'P', 'F', 1, 0, 0, 0, 0, 0, 0, 0})
	if err := <-errCh; !errors.Is(err, ErrProtocol) {
		t.Fatalf("bad magic error = %v, want ErrProtocol", err)
	}
}
