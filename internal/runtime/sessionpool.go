package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"orpheus/internal/tensor"
)

// SessionPool serves concurrent inference over one compiled Plan. Sessions
// are not safe for concurrent use — each owns a mutable arena and kernel
// scratch — so the pool hands every in-flight request its own session:
// N concurrent callers get N sessions, and all sessions share the plan's
// constant cache, so weights are packed once per plan rather than once
// per request or per session. Idle sessions wait on a LIFO free list (the
// most recently used arena is the one still in cache) that keeps at most
// GOMAXPROCS of them — no more can execute at once — and survives GC
// cycles, so a caller looping Get/Run/Put builds exactly one session.
type SessionPool struct {
	plan *Plan

	// idle is the free list; its capacity, fixed at GOMAXPROCS when the
	// pool is made, is the bound on how many sessions it keeps.
	mu   sync.Mutex
	idle []*Session

	// quarantined counts sessions dropped by Put because a plan step
	// panicked on them — a poisoned arena must never serve another
	// request. Operators watch this alongside the serve-layer panic
	// counter.
	quarantined atomic.Int64
}

// NewSessionPool returns a pool over the plan. Sessions are created
// lazily, on first concurrent demand.
func NewSessionPool(plan *Plan) *SessionPool {
	return &SessionPool{plan: plan, idle: make([]*Session, 0, goruntime.GOMAXPROCS(0))}
}

// Plan returns the compiled plan the pool serves.
func (sp *SessionPool) Plan() *Plan { return sp.plan }

// Get borrows a session. The caller must return it with Put, and must
// finish reading any Run results (which alias the session's arena) before
// doing so.
func (sp *SessionPool) Get() *Session {
	sp.mu.Lock()
	if n := len(sp.idle); n > 0 {
		s := sp.idle[n-1]
		sp.idle[n-1] = nil
		sp.idle = sp.idle[:n-1]
		sp.mu.Unlock()
		return s
	}
	sp.mu.Unlock()
	return NewSession(sp.plan)
}

// Put returns a borrowed session to the pool. A session poisoned by a
// plan-step panic is quarantined instead — dropped for the GC, never
// recycled — so one corrupted arena cannot bleed into later requests; a
// fresh session is built on the next Get that finds the free list empty.
// A session returned while GOMAXPROCS are already idle is dropped too.
func (sp *SessionPool) Put(s *Session) {
	if s.Poisoned() {
		sp.quarantined.Add(1)
		return
	}
	sp.mu.Lock()
	if len(sp.idle) < cap(sp.idle) {
		sp.idle = append(sp.idle, s)
	}
	sp.mu.Unlock()
}

// Quarantined reports how many poisoned sessions Put has dropped.
func (sp *SessionPool) Quarantined() int64 { return sp.quarantined.Load() }

// Run borrows a session, executes the graph and returns cloned outputs
// that remain valid after the session goes back to the pool. It is safe
// for any number of concurrent callers. Cancellation via ctx is honoured
// at plan-step boundaries, exactly as in Session.Run.
func (sp *SessionPool) Run(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	s := sp.Get()
	outs, err := s.Run(ctx, inputs)
	if err != nil {
		sp.Put(s)
		return nil, err
	}
	copied := make(map[string]*tensor.Tensor, len(outs))
	for k, v := range outs {
		copied[k] = v.Clone()
	}
	sp.Put(s)
	return copied, nil
}
