package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orpheus/internal/wire"
)

// TestRegistryAddRemove pins the registry bookkeeping: names sort, adds
// reject duplicates, removes are typed for unknown models and the model
// disappears from lookup (404 on the wire) as soon as Remove returns.
func TestRegistryAddRemove(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	g := tinyModel(t)
	for _, name := range []string{"b", "a", "c"} {
		if err := s.AddModel(name, g, "orpheus", 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ModelNames(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ModelNames = %v", got)
	}
	if s.Registry().Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Registry().Len())
	}
	if err := s.AddModel("a", g, "orpheus", 1); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := s.RemoveModel("nope"); !errors.Is(err, ErrNotHosted) {
		t.Fatalf("Remove(nope) = %v, want ErrNotHosted", err)
	}
	if err := s.RemoveModel("b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.entry("b"); ok {
		t.Fatal("removed model still resolves")
	}
	ts := newHTTPServer(t, s)
	if resp := postJSON(t, ts.URL+"/predict/b", map[string]any{"input": sampleInput()}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict on removed model = %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/predict/a", map[string]any{"input": sampleInput()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on surviving model = %d, want 200", resp.StatusCode)
	}
}

// TestAdmitLimitTiering pins the limit derivation across adds and
// removes: C−C·rank/n over the distinct priority classes, floor 1, full
// cap for every model when priorities are uniform, and recomputation
// when the class structure changes.
func TestAdmitLimitTiering(t *testing.T) {
	s := New(WithMaxInflight(9))
	t.Cleanup(s.Close)
	g := tinyModel(t)
	limits := func(names ...string) []int64 {
		out := make([]int64, len(names))
		for i, n := range names {
			e, ok := s.entry(n)
			if !ok {
				t.Fatalf("model %q not hosted", n)
			}
			out[i] = e.admitLimit.Load()
		}
		return out
	}
	// One class: everyone admits to the full cap.
	if err := s.AddModel("a", g, "orpheus", 1, WithModelPriority(5)); err != nil {
		t.Fatal(err)
	}
	if got := limits("a"); got[0] != 9 {
		t.Fatalf("single-class limit = %d, want 9", got[0])
	}
	// Three classes over cap 9: 9, 6, 3.
	if err := s.AddModel("b", g, "orpheus", 1, WithModelPriority(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("c", g, "orpheus", 1, WithModelPriority(-2)); err != nil {
		t.Fatal(err)
	}
	if got := limits("a", "b", "c"); got[0] != 9 || got[1] != 6 || got[2] != 3 {
		t.Fatalf("three-class limits = %v, want [9 6 3]", got)
	}
	// Removing the middle class collapses to two: 9, 5 (9−9·1/2 rounding down).
	if err := s.RemoveModel("b"); err != nil {
		t.Fatal(err)
	}
	if got := limits("a", "c"); got[0] != 9 || got[1] != 5 {
		t.Fatalf("two-class limits = %v, want [9 5]", got)
	}
}

// TestAdmitLimitUncapped pins the no-cap configuration: without
// WithMaxInflight, priorities are inert and every model's limit is
// unbounded.
func TestAdmitLimitUncapped(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	if err := s.AddModel("a", tinyModel(t), "orpheus", 1, WithModelPriority(7)); err != nil {
		t.Fatal(err)
	}
	e, _ := s.entry("a")
	if got := e.admitLimit.Load(); got != math.MaxInt64 {
		t.Fatalf("uncapped admit limit = %d, want MaxInt64", got)
	}
	if _, err := s.admit(e); err != nil {
		t.Fatalf("uncapped admit failed: %v", err)
	}
}

// TestPerModelOverrides pins the one per-model option, WithModelPriority,
// against the server-wide policy: each model carries its own priority
// class, and a model added without options gets class 0.
func TestPerModelOverrides(t *testing.T) {
	s := New(WithMaxBatch(2), WithQueueDepth(8), WithRequestTimeout(time.Second))
	t.Cleanup(s.Close)
	g := tinyModel(t)
	if err := s.AddModel("default", g, "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("custom", g, "orpheus", 1, WithModelPriority(4)); err != nil {
		t.Fatal(err)
	}
	d, _ := s.entry("default")
	c, _ := s.entry("custom")
	if d.priority != 0 || c.priority != 4 {
		t.Fatalf("entry priorities = (%d, %d), want (0, 4)", d.priority, c.priority)
	}
}

// TestRegistryStress is the -race gauntlet of the multi-model registry:
// clients hammer four model names with a JSON/binary mix while one model
// is added mid-flight, another is removed mid-flight, and finally the
// server drains with requests outstanding. The contract under all that
// churn: every request completes (no deadlock), and every non-200 is one
// of the typed wire statuses with a JSON error body — no request is lost
// silently, no output is wrong.
func TestRegistryStress(t *testing.T) {
	input := make([]float32, 3*8*8)
	for i := range input {
		input[i] = 0.01 * float32(i%23)
	}
	want := referenceOutput(t, input)
	wireBody := wire.AppendTensor(nil, input, []int{1, 3, 8, 8})
	jsonBody, _ := json.Marshal(map[string]any{"input": input})

	s := New(WithMaxBatch(3), WithFlushDeadline(time.Millisecond), WithMaxInflight(32))
	g := tinyModel(t)
	// steady serves throughout; doomed is removed mid-test; late is added
	// mid-test; "ghost" never exists. Distinct priorities exercise the
	// tiering recompute under churn.
	if err := s.AddModel("steady", g, "orpheus", 1, WithModelPriority(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("doomed", g, "orpheus", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddModel("spare", g, "orpheus", 1, WithModelPriority(2)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := newHTTPServer(t, s)

	models := []string{"steady", "doomed", "spare", "late", "ghost"}
	const clients = 8
	const iters = 25
	var (
		wg       sync.WaitGroup
		ok200    atomic.Int64
		shed429  atomic.Int64
		gone404  atomic.Int64
		drain503 atomic.Int64
	)
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				model := models[(c+i)%len(models)]
				var (
					resp *http.Response
					err  error
				)
				if (c+i)%2 == 0 {
					resp, err = http.Post(ts.URL+"/predict/"+model, "application/json", bytes.NewReader(jsonBody))
				} else {
					req, _ := http.NewRequest("POST", ts.URL+"/models/"+model+"/predict", bytes.NewReader(wireBody))
					req.Header.Set("Content-Type", ContentTypeTensor)
					resp, err = http.DefaultClient.Do(req)
				}
				if err != nil {
					errc <- fmt.Errorf("client %d iter %d (%s): transport: %v", c, i, model, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					errc <- fmt.Errorf("client %d iter %d (%s): body: %v", c, i, model, rerr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					var out []float32
					if resp.Header.Get("Content-Type") == ContentTypeTensor {
						dec, derr := wire.DecodeBytes(body, 0)
						if derr != nil {
							errc <- fmt.Errorf("client %d iter %d (%s): bad wire response: %v", c, i, model, derr)
							return
						}
						out = dec.Data()
					} else {
						var jr struct {
							Output []float32 `json:"output"`
						}
						if jerr := json.Unmarshal(body, &jr); jerr != nil {
							errc <- fmt.Errorf("client %d iter %d (%s): bad JSON response: %v", c, i, model, jerr)
							return
						}
						out = jr.Output
					}
					for j := range want {
						if out[j] != want[j] {
							errc <- fmt.Errorf("client %d iter %d (%s): output[%d] = %v, want %v", c, i, model, j, out[j], want[j])
							return
						}
					}
				case http.StatusNotFound:
					gone404.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				case http.StatusServiceUnavailable:
					drain503.Add(1)
				default:
					errc <- fmt.Errorf("client %d iter %d (%s): status %d (%s) outside the typed contract", c, i, model, resp.StatusCode, body)
					return
				}
				if resp.StatusCode != http.StatusOK {
					var e map[string]string
					if jerr := json.Unmarshal(body, &e); jerr != nil || e["error"] == "" {
						errc <- fmt.Errorf("client %d iter %d (%s): %d without a JSON error body (%s)", c, i, model, resp.StatusCode, body)
						return
					}
				}
			}
		}(c)
	}

	// Churn the registry while the clients fire: a model joins, a model
	// leaves, and once traffic has flowed for a while the server drains.
	time.Sleep(10 * time.Millisecond)
	if err := s.AddModel("late", g, "orpheus", 1, WithModelPriority(3)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.RemoveModel("doomed"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if ok200.Load() == 0 {
		t.Error("no request succeeded before the drain")
	}
	if gone404.Load() == 0 {
		t.Error("the never-hosted model never produced a 404")
	}
	t.Logf("stress: 200=%d 404=%d 429=%d 503=%d (add/remove/drain mid-flight)",
		ok200.Load(), gone404.Load(), shed429.Load(), drain503.Load())
}
