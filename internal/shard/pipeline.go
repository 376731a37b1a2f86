package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// PipelineConfig parameterises a driver over a chain of stages.
type PipelineConfig struct {
	// Model must match the model every stage serves.
	Model string
	// Addrs lists the stage addresses in pipeline order; the driver
	// feeds Addrs[0] and collects from Addrs[len-1]. Intermediate hops
	// are stage-to-stage and never touch the driver.
	Addrs []string
	// Depth bounds requests in flight. Stages only overlap when depth is
	// at least the stage count; <=0 means 2×len(Addrs).
	Depth int
	// Timeout bounds one request end to end, on top of the caller's
	// context, and each driver-side read of the collect link (<=0: no
	// driver-side deadline).
	Timeout time.Duration
	// DialTimeout bounds each dial attempt (<=0: 5s).
	DialTimeout time.Duration
	// DialBackoff is the initial reconnect backoff, doubling to 32× per
	// retry (<=0: 50ms).
	DialBackoff time.Duration
	// MaxFrame bounds one frame's payload (<=0: DefaultMaxFrame).
	MaxFrame int
}

// PipelineStats is a point-in-time snapshot of driver counters.
type PipelineStats struct {
	// Submitted counts requests accepted by Run.
	Submitted int64
	// Completed counts requests that returned outputs.
	Completed int64
	// Failed counts requests that returned an error.
	Failed int64
	// Reconnects counts feed/collect re-dials after a lost peer.
	Reconnects int64
}

// outcome resolves one in-flight request.
type outcome struct {
	outs map[string][]float32
	err  error
}

// Pipeline is the driver end of a sharded pipeline: it streams
// activation frames into the first stage, receives results from the
// last, and keeps up to Depth requests in flight so every stage
// computes concurrently. Run is safe for concurrent callers.
type Pipeline struct {
	cfg PipelineConfig
	in  []TensorDesc
	out []TensorDesc

	mu      sync.Mutex
	feed    *frameConn
	collect *frameConn
	pending map[uint64]chan outcome

	seq      atomic.Uint64
	sem      chan struct{}
	inflight atomic.Int64
	closed   atomic.Bool
	quit     chan struct{}
	recv     sync.WaitGroup

	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	reconnects atomic.Int64

	encPool sync.Pool
}

// Dial connects a driver to a stage chain: a feed handshake with the
// first stage (which also reveals the model's input descriptors) and a
// collect handshake with the last. It does not dial intermediate
// stages — those link to each other on demand.
func Dial(ctx context.Context, cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("%w: no stage addresses", ErrHandshake)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2 * len(cfg.Addrs)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	p := &Pipeline{
		cfg:     cfg,
		pending: make(map[uint64]chan outcome),
		sem:     make(chan struct{}, cfg.Depth),
		quit:    make(chan struct{}),
	}
	feed, w, err := p.dialStage(ctx, cfg.Addrs[0], "feed")
	if err != nil {
		return nil, err
	}
	p.feed = feed
	p.in = w.Inputs
	collect, wc, err := p.dialStage(ctx, cfg.Addrs[len(cfg.Addrs)-1], "collect")
	if err != nil {
		_ = feed.Close()
		return nil, err
	}
	p.collect = collect
	p.out = wc.Outputs
	p.recv.Add(1)
	go p.recvLoop()
	return p, nil
}

// Inputs returns the model's input descriptors, learned from the first
// stage's welcome.
func (p *Pipeline) Inputs() []TensorDesc { return p.in }

// Outputs returns the model's output descriptors, learned from the
// terminal stage's welcome.
func (p *Pipeline) Outputs() []TensorDesc { return p.out }

// Stats snapshots the driver counters.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Submitted:  p.submitted.Load(),
		Completed:  p.completed.Load(),
		Failed:     p.failed.Load(),
		Reconnects: p.reconnects.Load(),
	}
}

// dialStage dials one stage and handshakes in the given role.
func (p *Pipeline) dialStage(ctx context.Context, addr, role string) (*frameConn, *welcome, error) {
	d := net.Dialer{Timeout: p.cfg.DialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: dialing %s: %v", ErrPeerClosed, addr, err)
	}
	fc := newFrameConn(c, p.cfg.MaxFrame)
	h := hello{
		Version: ProtocolVersion, Model: p.cfg.Model, Role: role,
		Shard: -1, Count: len(p.cfg.Addrs),
	}
	var w welcome
	if err := handshake(fc, &h, &w); err != nil {
		_ = fc.Close()
		return nil, nil, err
	}
	return fc, &w, nil
}

// Run executes one request through the pipeline: inputs keyed by the
// model's input names, outputs keyed by its output names (both per
// Inputs/Outputs). It blocks while Depth requests are already in
// flight — that bound, not the caller's concurrency, sets the pipeline
// occupancy.
func (p *Pipeline) Run(ctx context.Context, inputs map[string][]float32) (map[string][]float32, error) {
	if p.closed.Load() {
		return nil, ErrDraining
	}
	if p.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
		defer cancel()
	}
	tensors := make([][]float32, len(p.in))
	shapes := make([][]int, len(p.in))
	for i, d := range p.in {
		data, ok := inputs[d.Name]
		if !ok {
			return nil, fmt.Errorf("shard: missing input %q", d.Name)
		}
		vol := 1
		for _, s := range d.Shape {
			vol *= s
		}
		if len(data) != vol {
			return nil, fmt.Errorf("shard: input %q has %d values, want %d", d.Name, len(data), vol)
		}
		tensors[i] = data
		shapes[i] = d.Shape
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.quit:
		return nil, ErrDraining
	}
	p.inflight.Add(1)
	defer func() {
		<-p.sem
		p.inflight.Add(-1)
	}()

	seq := p.seq.Add(1)
	ch := make(chan outcome, 1)
	p.mu.Lock()
	p.pending[seq] = ch
	p.mu.Unlock()
	p.submitted.Add(1)
	defer func() {
		p.mu.Lock()
		delete(p.pending, seq)
		p.mu.Unlock()
	}()

	enc, _ := p.encPool.Get().([]byte)
	enc, _ = appendActivations(enc[:0], seq, tensors, shapes, false, nil)
	err := p.send(ctx, enc)
	p.encPool.Put(enc) //nolint:staticcheck // slice reuse, value semantics are fine here
	if err != nil {
		p.failed.Add(1)
		return nil, err
	}

	select {
	case out := <-ch:
		if out.err != nil {
			p.failed.Add(1)
			return nil, out.err
		}
		p.completed.Add(1)
		return out.outs, nil
	case <-ctx.Done():
		p.failed.Add(1)
		return nil, ctx.Err()
	case <-p.quit:
		p.failed.Add(1)
		return nil, ErrDraining
	}
}

// Predict is the single-input single-output convenience over Run.
func (p *Pipeline) Predict(ctx context.Context, input []float32) ([]float32, error) {
	if len(p.in) != 1 || len(p.out) != 1 {
		return nil, fmt.Errorf("shard: Predict needs exactly one input and output, model has %d/%d (use Run)",
			len(p.in), len(p.out))
	}
	outs, err := p.Run(ctx, map[string][]float32{p.in[0].Name: input})
	if err != nil {
		return nil, err
	}
	return outs[p.out[0].Name], nil
}

// send writes one activation frame to the feed stage, re-dialing with
// backoff on a lost connection until the context expires.
func (p *Pipeline) send(ctx context.Context, frame []byte) error {
	backoff := p.cfg.DialBackoff
	for {
		p.mu.Lock()
		fc := p.feed
		p.mu.Unlock()
		if fc != nil {
			if err := fc.writeFrame(ftActivations, frame); err == nil {
				return nil
			}
			p.mu.Lock()
			if p.feed == fc {
				p.feed = nil
			}
			p.mu.Unlock()
			_ = fc.Close()
		}
		if p.closed.Load() {
			return ErrDraining
		}
		nfc, w, err := p.dialStage(ctx, p.cfg.Addrs[0], "feed")
		if err == nil {
			if !descsEqual(w.Inputs, p.in) {
				_ = nfc.Close()
				return fmt.Errorf("%w: stage inputs changed across reconnect", ErrHandshake)
			}
			if !p.publish(&p.feed, nfc) {
				return ErrDraining
			}
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: feed stage unreachable: %v", ErrPeerClosed, ctx.Err())
		case <-p.quit:
			return ErrDraining
		case <-time.After(backoff):
		}
		if backoff < 32*p.cfg.DialBackoff {
			backoff *= 2
		}
	}
}

// recvLoop owns the collect connection: it dispatches result and error
// frames to their pending requests by sequence id, and re-dials with
// backoff when the terminal stage drops the link. Requests in flight
// across a drop fail with ErrPeerClosed — the frames that would have
// resolved them may be gone with the connection. A frame that stalls for
// Timeout counts as a drop.
func (p *Pipeline) recvLoop() {
	defer p.recv.Done()
	for {
		p.mu.Lock()
		fc := p.collect
		p.mu.Unlock()
		if fc == nil {
			if !p.redialCollect() {
				return
			}
			continue
		}
		if p.cfg.Timeout > 0 {
			// An idle link is not a lost one: wait for the next frame under
			// a deadline, so this loop re-reads the published link (which
			// Close clears) at least once per Timeout, then give the frame
			// itself a fresh Timeout.
			_ = fc.c.SetReadDeadline(time.Now().Add(p.cfg.Timeout))
			if _, err := fc.br.Peek(1); errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			_ = fc.c.SetReadDeadline(time.Now().Add(p.cfg.Timeout))
		}
		ft, payload, err := fc.readFrame()
		if err != nil {
			p.mu.Lock()
			if p.collect == fc {
				p.collect = nil
			}
			p.mu.Unlock()
			_ = fc.Close()
			if p.closed.Load() {
				return
			}
			p.failPending(fmt.Errorf("%w: collect link lost: %v", ErrPeerClosed, err))
			continue
		}
		switch ft {
		case ftResult:
			seq, outs, derr := p.decodeResult(payload)
			if derr != nil {
				// A result that fails to decode means the payload — and
				// its sequence id — can't be trusted: drop the link and
				// re-handshake rather than resolve the wrong request.
				p.mu.Lock()
				if p.collect == fc {
					p.collect = nil
				}
				p.mu.Unlock()
				_ = fc.Close()
				p.failPending(fmt.Errorf("%w: undecodable result: %v", ErrProtocol, derr))
				continue
			}
			p.deliver(seq, outcome{outs: outs})
		case ftError:
			seq, re, derr := decodeError(payload)
			if derr != nil {
				continue
			}
			p.deliver(seq, outcome{err: re})
		case ftDrain:
			// The terminal stage is going away; pending requests will
			// resolve or fail when the connection actually drops.
		}
	}
}

// redialCollect re-establishes the collect link, backing off between
// attempts. Returns false when the pipeline closed instead.
func (p *Pipeline) redialCollect() bool {
	backoff := p.cfg.DialBackoff
	for {
		if p.closed.Load() {
			return false
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.DialTimeout)
		fc, w, err := p.dialStage(ctx, p.cfg.Addrs[len(p.cfg.Addrs)-1], "collect")
		cancel()
		if err == nil {
			if !descsEqual(w.Outputs, p.out) {
				_ = fc.Close()
				p.failPending(fmt.Errorf("%w: stage outputs changed across reconnect", ErrHandshake))
				return false
			}
			return p.publish(&p.collect, fc)
		}
		select {
		case <-p.quit:
			return false
		case <-time.After(backoff):
		}
		if backoff < 32*p.cfg.DialBackoff {
			backoff *= 2
		}
	}
}

// publish installs a re-dialled link in *slot and reports whether it did.
// Close sets closed before it takes p.mu to close the published links, so
// the check under p.mu decides the race: a link that loses it was dialled
// after Close had looked, and is closed here rather than installed where
// nobody would close it.
func (p *Pipeline) publish(slot **frameConn, fc *frameConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		_ = fc.Close()
		return false
	}
	*slot = fc
	p.reconnects.Add(1)
	return true
}

// decodeResult parses a result frame into freshly allocated output
// slices keyed by output name.
func (p *Pipeline) decodeResult(payload []byte) (uint64, map[string][]float32, error) {
	dst := make([][]float32, len(p.out))
	outs := make(map[string][]float32, len(p.out))
	for i, d := range p.out {
		vol := 1
		for _, s := range d.Shape {
			vol *= s
		}
		dst[i] = make([]float32, vol)
		outs[d.Name] = dst[i]
	}
	seq, err := decodeActivations(payload, p.out, dst)
	if err != nil {
		return seq, nil, err
	}
	return seq, outs, nil
}

// deliver resolves the pending request for seq, dropping frames whose
// request already gave up (deadline, cancel).
func (p *Pipeline) deliver(seq uint64, out outcome) {
	p.mu.Lock()
	ch := p.pending[seq]
	delete(p.pending, seq)
	p.mu.Unlock()
	if ch != nil {
		ch <- out
	}
}

// failPending resolves every in-flight request with err.
func (p *Pipeline) failPending(err error) {
	p.mu.Lock()
	chans := make([]chan outcome, 0, len(p.pending))
	for seq, ch := range p.pending {
		chans = append(chans, ch)
		delete(p.pending, seq)
	}
	p.mu.Unlock()
	for _, ch := range chans {
		ch <- outcome{err: err}
	}
}

// Close drains the driver: new Runs are refused, in-flight requests get
// up to 5 seconds to resolve, then the stage links close. Safe to call
// more than once.
func (p *Pipeline) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.mu.Lock()
	if p.feed != nil {
		_ = p.feed.writeFrame(ftDrain, nil)
	}
	for _, fc := range []*frameConn{p.feed, p.collect} {
		if fc != nil {
			_ = fc.Close()
		}
	}
	p.feed, p.collect = nil, nil
	p.mu.Unlock()
	close(p.quit)
	p.failPending(ErrDraining)
	p.recv.Wait()
	return nil
}
