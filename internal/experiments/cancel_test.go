package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dfpc/internal/guard"
)

// selectionCanceled is a context that reads as canceled only inside
// featsel.MMRFS: Done hands a closed channel to callers under MMRFS and
// nil (never done) to everyone else, so mining runs to completion and
// only a selection stage that consults the context stops.
type selectionCanceled struct {
	mu       sync.Mutex
	canceled bool
}

func (*selectionCanceled) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*selectionCanceled) Value(any) any               { return nil }

func (c *selectionCanceled) Done() <-chan struct{} {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "featsel.MMRFS") {
			c.mu.Lock()
			c.canceled = true
			c.mu.Unlock()
			done := make(chan struct{})
			close(done)
			return done
		}
		if !more {
			return nil
		}
	}
}

func (c *selectionCanceled) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canceled {
		return context.Canceled
	}
	return nil
}

// TestRunScalabilityCanceled: a canceled context stops a Tables 3–5
// sweep before any row completes, whether mining or selection is the
// stage that sees it.
func TestRunScalabilityCanceled(t *testing.T) {
	cfg := ScalabilityConfig{
		Dataset:     "chess",
		AbsSupports: []int{700},
		SampleRows:  800,
		MaxPatterns: 300000,
		MaxLen:      4,
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(ctx context.Context, name string) {
		t.Helper()
		cfg.Ctx = ctx
		rows, err := RunScalability(cfg)
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("%s: err = %v, want guard.ErrCanceled", name, err)
		}
		if len(rows) != 0 {
			t.Fatalf("%s: %d rows completed after cancellation", name, len(rows))
		}
	}
	check(pre, "already-canceled")
	check(&selectionCanceled{}, "canceled-in-select")
}
