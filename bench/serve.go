package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"orpheus"
	"orpheus/internal/serve"
	"orpheus/internal/wire"
)

// serveClients is the number of keep-alive connections: nproc on the
// reference container, and the batcher's width.
const serveClients = 2

// serveInstance is an in-process serve.Server on a loopback TCP listener
// with serveClients closed-loop HTTP clients.
type serveInstance struct {
	ctx  context.Context
	srv  *serve.Server
	http *http.Server
	done chan struct{} // closed when http.Serve has returned
	addr string
	url  string
	mem  int64
	cl   [serveClients]wireClient
}

// wireClient is one keep-alive connection and its reusable buffers. The
// client goroutine writes the request and reads the response itself:
// http.Transport would add two goroutines per connection, whose wake-ups
// are the load generator's time and the scheduler's noise, not the
// server's.
type wireClient struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	body []byte
	resp bytes.Buffer
	out  []float32
}

// drop closes the connection after a failed exchange, whose stream
// position is unknown; the next post dials again.
func (c *wireClient) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func setupServe(w *workload, e *env) (instance, error) {
	g, err := buildGraph(w.model)
	if err != nil {
		return nil, err
	}
	// orpheus-serve's defaults, except -max-batch 2 and -flush-ms 0.
	srv := serve.New(serve.WithMaxBatch(w.maxBatch), serve.WithFlushDeadline(0),
		serve.WithQueueDepth(64), serve.WithMaxInflight(256), serve.WithRequestTimeout(30*time.Second))
	if err := srv.AddModel(w.model, g, "orpheus", 1); err != nil {
		return nil, err
	}
	// The server keeps its plan private; an identically compiled facade
	// session reports the footprint.
	sess, err := orpheus.FromGraph(g).Compile(w.compileOpts()...)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Predict(e.ctx, e.pool[0].in); err != nil {
		return nil, err
	}
	mem := planBytes(sess)
	sess.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveInstance{ctx: e.ctx, srv: srv, mem: mem, done: make(chan struct{}),
		http: &http.Server{Handler: srv.Handler()},
		addr: ln.Addr().String(),
		url:  fmt.Sprintf("http://%s/predict/%s", ln.Addr(), w.model),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return s, nil
}

func (s *serveInstance) clients() int { return serveClients }

func (s *serveInstance) do(client int, in *orpheus.Tensor) ([]float32, error) {
	c := &s.cl[client]
	c.body = wire.AppendTensor(c.body[:0], in.Data(), in.Shape())
	if err := s.post(c); err != nil {
		return nil, err
	}
	return decodeWire(c, c.resp.Bytes())
}

// post sends c.body over the client's keep-alive connection and reads the
// binary response into c.resp.
func (s *serveInstance) post(c *wireClient) error {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost, s.url, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", serve.ContentTypeTensor)
	if c.conn == nil {
		if c.conn, err = net.Dial("tcp", s.addr); err != nil {
			return err
		}
		c.bw, c.br = bufio.NewWriter(c.conn), bufio.NewReader(c.conn)
	}
	if err = req.Write(c.bw); err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.drop()
		return err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		c.drop()
		return err
	}
	c.resp.Reset()
	_, err = io.Copy(&c.resp, resp.Body)
	resp.Body.Close()
	if err != nil {
		c.drop()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("predict: %s: %s", resp.Status, bytes.TrimSpace(c.resp.Bytes()))
	}
	return nil
}

// decodeWire parses one ORPT message into c.out.
func decodeWire(c *wireClient, msg []byte) ([]float32, error) {
	hdr, payload, err := wire.ParseMessage(msg, 0)
	if err != nil {
		return nil, err
	}
	if n := hdr.Volume(); cap(c.out) < n {
		c.out = make([]float32, n)
	} else {
		c.out = c.out[:n]
	}
	if err := wire.Float32Into(c.out, payload); err != nil {
		return nil, err
	}
	return c.out, nil
}

func (s *serveInstance) planBytes() int64 { return s.mem }

func (s *serveInstance) close() {
	for c := range s.cl {
		s.cl[c].drop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // on timeout the listener is closed regardless
	<-s.done
	s.srv.Close()
}
