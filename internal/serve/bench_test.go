package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/socdata"
)

// BenchmarkSolveCacheHit measures the library service path for a warm
// key: validation, the one canonical pass (digest and canonical clone),
// LRU lookup and result re-indexing — the per-request overhead a
// repeated Server.Solve query pays instead of a solve.
func BenchmarkSolveCacheHit(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	s := socdata.D695()
	if _, _, err := sv.Solve(context.Background(), s, 32, coopt.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, meta, err := sv.Solve(context.Background(), s, 32, coopt.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !meta.Cached {
			b.Fatal("benchmark missed the cache")
		}
	}
}

// BenchmarkSolveCold measures the uncached service path (the solve
// dominates; the interesting ratio is against BenchmarkSolveCacheHit).
func BenchmarkSolveCold(b *testing.B) {
	sv := New(Config{CacheSize: -1})
	defer sv.Close()
	s := socdata.D695()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.Solve(context.Background(), s, 16, coopt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPSolveHit is a warm-key POST /v1/solve naming a p-SOC,
// through the whole handler: JSON decode, name resolution, cache hit,
// remap and JSON encode. It serves into a recorder rather than over
// loopback, so its allocs/op stay exact from run to run and the
// trajectory gate can hold them.
func BenchmarkHTTPSolveHit(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	h := sv.Handler()
	body := []byte(`{"benchmark":"p93791","width":32}`)
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkBatchDuplicates measures batch throughput on the repeated-
// query workload the service exists for: 32 jobs, 4 distinct.
func BenchmarkBatchDuplicates(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	var jobs []string
	for i := 0; i < 32; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"benchmark":"d695","width":%d}`, []int{16, 24, 32, 40}[i%4]))
	}
	body := `{"jobs":[` + strings.Join(jobs, ",") + `]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		// Drain the stream so every job completes.
		buf := make([]byte, 32<<10)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		resp.Body.Close()
	}
}
