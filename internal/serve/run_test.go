package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is an io.Writer the daemon goroutine and the test can
// share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Run must announce its bound address, answer requests, and exit
// cleanly when its context is cancelled — the whole lifecycle of wtamd.
func TestRunLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- Run(ctx, "127.0.0.1:0", Config{}, out) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no listening line after 5s; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "wtamd: listening on "); ok {
				addr = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(addr + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit after cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("no shutdown line in output: %q", out.String())
	}
}

// A bad address must fail immediately, not hang.
func TestRunBadAddress(t *testing.T) {
	err := Run(context.Background(), "256.0.0.1:bad", Config{}, &syncBuffer{})
	if err == nil {
		t.Fatal("Run accepted an unusable address")
	}
}
