package runtime

import (
	"errors"
	"fmt"
)

// Typed sentinel errors of the inference request lifecycle. Every error the
// runtime (and the facade above it) returns for these conditions wraps one
// of the sentinels with %w, so callers branch with errors.Is instead of
// matching message strings:
//
//	if errors.Is(err, runtime.ErrShapeMismatch) { /* 400, not 500 */ }
//
// The sentinels deliberately carry no request detail themselves — the
// wrapping error holds the shapes, names and limits — so they stay stable
// comparison anchors across releases.
var (
	// ErrShapeMismatch marks an input (or destination) tensor whose shape
	// or volume does not match what the compiled plan expects.
	ErrShapeMismatch = errors.New("shape mismatch")

	// ErrUnknownInput marks a named input that the graph does not declare,
	// or a declared graph input missing from the request.
	ErrUnknownInput = errors.New("unknown input")

	// ErrUnknownOutput marks a request for an output name the graph does
	// not produce.
	ErrUnknownOutput = errors.New("unknown output")

	// ErrBatchTooLarge marks a request whose batch exceeds the MaxBatch the
	// plan was compiled for.
	ErrBatchTooLarge = errors.New("batch exceeds plan MaxBatch")

	// ErrClosed marks a request submitted after Close: the session,
	// batcher or server has drained and no longer accepts work.
	ErrClosed = errors.New("closed")

	// ErrOverloaded marks a request shed by admission control: the
	// batcher's queue or the server's in-flight limit is at capacity and
	// the request was rejected immediately instead of queueing unboundedly.
	// The HTTP layer maps it to 429 with a Retry-After estimate.
	ErrOverloaded = errors.New("overloaded")

	// ErrPlanPanic marks a request whose plan step panicked. The panic is
	// recovered at the step boundary, only the affected request (or batch)
	// fails, and the session it ran on is quarantined rather than pooled;
	// the process stays up. The concrete error is a *PlanPanicError
	// carrying the step name.
	ErrPlanPanic = errors.New("plan step panicked")

	// ErrMultiIO marks a single-tensor call (Session.RunOne, a Batcher) on
	// a plan with more than one input or output; such plans run through
	// the named-tensor Run.
	ErrMultiIO = errors.New("model has multiple inputs/outputs; use Run with named tensors")
)

// PlanPanicError is the error Run returns when a plan step panics: the
// panic value plus the step (node) it was recovered at. It wraps
// ErrPlanPanic, so callers branch with errors.Is and introspect with
// errors.As when they need the step identity.
type PlanPanicError struct {
	// Model is the graph name, Node the panicking step's node name and Op
	// its operator.
	Model, Node, Op string
	// Value is the recovered panic value.
	Value any
}

// Error formats the panic with its step identity.
func (e *PlanPanicError) Error() string {
	return fmt.Sprintf("runtime: node %q (%s) in %s panicked: %v: %v", e.Node, e.Op, e.Model, e.Value, ErrPlanPanic)
}

// Unwrap ties the error into the sentinel taxonomy.
func (e *PlanPanicError) Unwrap() error { return ErrPlanPanic }
