package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/socdata"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sv := New(cfg)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() { ts.Close(); sv.Close() })
	return sv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want, err := coopt.Solve(socdata.D695(), 32, coopt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":32}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var out solveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if out.Cached {
		t.Error("first solve reported cached")
	}
	if !strings.HasPrefix(out.Digest, "sha256:") {
		t.Errorf("digest %q", out.Digest)
	}
	if out.Result.Time != int64(want.Time) {
		t.Errorf("HTTP time %d, library time %d", out.Result.Time, want.Time)
	}
	if out.Result.NumTAMs != want.NumTAMs || len(out.Result.Assignment) != len(socdata.D695().Cores) {
		t.Errorf("architecture mismatch: %+v", out.Result)
	}

	// Same job again: a hit, same result bytes apart from the request
	// timing field.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":32}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var out2 solveResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Error("repeat solve missed the cache")
	}
	out.ElapsedMS, out2.ElapsedMS = 0, 0
	out.Cached, out2.Cached = false, false
	a, _ := json.Marshal(out)
	b, _ := json.Marshal(out2)
	if string(a) != string(b) {
		t.Errorf("cached response differs from cold:\n%s\n%s", a, b)
	}
}

func TestSolveEndpointPacking(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		`{"benchmark":"d695","width":16,"options":{"strategy":"packing"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out solveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Packing == nil || len(out.Result.Packing.Rects) != len(socdata.D695().Cores) {
		t.Fatalf("packing result missing rectangles: %s", body)
	}
	if out.Result.Packing.Rects[0].Name == "" {
		t.Error("rectangles carry no core names")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"malformed json", "POST", "/v1/solve", `{"benchmark":`, 400, "bad_request"},
		{"unknown field", "POST", "/v1/solve", `{"benchmark":"d695","widht":32}`, 400, "bad_request"},
		{"no soc", "POST", "/v1/solve", `{"width":32}`, 400, "bad_request"},
		{"both socs", "POST", "/v1/solve", `{"benchmark":"d695","soc":"soc x\ncore a inputs 1 outputs 1 patterns 1","width":32}`, 400, "bad_request"},
		{"bad benchmark", "POST", "/v1/solve", `{"benchmark":"d696","width":32}`, 400, "bad_request"},
		{"bad soc text", "POST", "/v1/solve", `{"soc":"not a soc","width":32}`, 400, "bad_request"},
		{"bad width", "POST", "/v1/solve", `{"benchmark":"d695","width":0}`, 400, "bad_request"},
		{"bad strategy", "POST", "/v1/solve", `{"benchmark":"d695","width":32,"options":{"strategy":"magic"}}`, 400, "bad_request"},
		{"retired final_solver", "POST", "/v1/solve", `{"benchmark":"d695","width":32,"options":{"final_solver":"ilp"}}`, 400, "bad_request"},
		{"infeasible power", "POST", "/v1/solve", `{"benchmark":"d695","width":16,"options":{"max_power":1}}`, 422, "unsolvable"},
		{"empty batch", "POST", "/v1/batch", `{"jobs":[]}`, 400, "bad_request"},
		{"wrong method", "GET", "/v1/solve", ``, 405, "method_not_allowed"},
		{"unknown path", "GET", "/v1/nope", ``, 404, "not_found"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, buf.Bytes())
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, buf.Bytes())
			continue
		}
		if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
	}
}

func TestBatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchJobs: 3})
	jobs := `{"jobs":[` + strings.Repeat(`{"benchmark":"d695","width":16},`, 3) + `{"benchmark":"d695","width":16}]}`
	resp, body := postJSON(t, ts.URL+"/v1/batch", jobs)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// A batch of 100 mixed duplicate/distinct jobs over HTTP — benchmark
// references, inline .soc texts, permuted core orders, two strategies —
// every job matching the result the CLI path (a direct coopt solve)
// produces, with 8 cold solves in /v1/stats, and the same batch again
// answered wholly from the cache.
func TestBatch100MixedJobsMatchCLI(t *testing.T) {
	sv, ts := newTestServer(t, Config{})
	d695 := socdata.D695()

	type jobSpec struct {
		width    int
		strategy coopt.Strategy
	}
	// Reference results straight through the library (what wtam prints).
	ref := map[jobSpec]coopt.Result{}
	reference := func(spec jobSpec) coopt.Result {
		if r, ok := ref[spec]; ok {
			return r
		}
		r, err := coopt.Solve(d695, spec.width, coopt.Options{Workers: 1, Strategy: spec.strategy})
		if err != nil {
			t.Fatal(err)
		}
		ref[spec] = r
		return r
	}

	widths := []int{16, 24, 32, 40}
	var jobs []string
	specs := make([]jobSpec, 0, 100)
	for i := 0; i < 100; i++ {
		spec := jobSpec{width: widths[i%len(widths)]}
		var job string
		switch i % 5 {
		case 0, 1: // benchmark reference (duplicates across the batch)
			job = fmt.Sprintf(`{"benchmark":"d695","width":%d}`, spec.width)
		case 2: // inline .soc text, original core order
			b, _ := json.Marshal(d695.EncodeString())
			job = fmt.Sprintf(`{"soc":%s,"width":%d}`, b, spec.width)
		case 3: // inline .soc text, permuted core order
			b, _ := json.Marshal(permuted(d695, int64(i)).EncodeString())
			job = fmt.Sprintf(`{"soc":%s,"width":%d}`, b, spec.width)
		case 4: // packing strategy
			spec.strategy = coopt.StrategyPacking
			job = fmt.Sprintf(`{"benchmark":"d695","width":%d,"options":{"strategy":"packing"}}`, spec.width)
		}
		specs = append(specs, spec)
		jobs = append(jobs, job)
	}

	// batchLine embeds an unexported struct pointer (fine to marshal,
	// not to unmarshal), so the client side decodes a flat mirror.
	type lineIn struct {
		Job    int        `json:"job"`
		Cached bool       `json:"cached"`
		Result resultJSON `json:"result"`
		Error  *errorBody `json:"error,omitempty"`
	}
	// runBatch posts the 100 jobs and checks every streamed line against
	// the CLI reference. It returns once the stream is fully read.
	runBatch := func(wantCached bool) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"jobs":[`+strings.Join(jobs, ",")+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		seen := make([]bool, len(jobs))
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		lines := 0
		for sc.Scan() {
			lines++
			var line lineIn
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if line.Job < 0 || line.Job >= len(jobs) || seen[line.Job] {
				t.Fatalf("bad or repeated job index %d", line.Job)
			}
			seen[line.Job] = true
			if line.Error != nil {
				t.Fatalf("job %d failed: %s", line.Job, line.Error.Message)
			}
			if wantCached && !line.Cached {
				t.Errorf("job %d: not served from the cache", line.Job)
			}
			want := reference(specs[line.Job])
			if line.Result.Time != int64(want.Time) {
				t.Errorf("job %d: HTTP time %d, CLI time %d", line.Job, line.Result.Time, want.Time)
			}
			if specs[line.Job].strategy == coopt.StrategyPartition && line.Result.NumTAMs != want.NumTAMs {
				t.Errorf("job %d: HTTP TAMs %d, CLI TAMs %d", line.Job, line.Result.NumTAMs, want.NumTAMs)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if lines != len(jobs) {
			t.Fatalf("got %d NDJSON lines for %d jobs", lines, len(jobs))
		}
	}

	runBatch(false)
	first := sv.Stats()
	// 8 distinct (width, strategy, content) keys exist: 4 widths ×
	// (partition, packing) — content variants digest identically.
	if first.Jobs.Solved != 8 {
		t.Errorf("cold solves = %d, want 8 distinct jobs", first.Jobs.Solved)
	}
	// Within one batch every job may coalesce onto an in-flight solve,
	// so its hit count is timing-dependent. Once the stream is fully
	// read every solve has landed in the cache, so the same batch again
	// is served from it alone.
	runBatch(true)
	second := sv.Stats()
	if hits := second.Cache.Hits - first.Cache.Hits; hits != 100 {
		t.Errorf("second batch: %d cache hits, want 100", hits)
	}
	if second.Jobs.Solved != 8 {
		t.Errorf("second batch: cold solves = %d, want still 8", second.Jobs.Solved)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz body %s (%v)", body, err)
	}

	postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16}`)
	postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16}`)
	resp, body = getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	if st.Jobs.Completed != 2 || st.Jobs.Solved != 1 || st.Cache.Hits != 1 {
		t.Errorf("stats after one repeat = %s", body)
	}
	if st.Workers < 1 || st.SolveWorkers < 1 || st.UptimeSeconds <= 0 {
		t.Errorf("implausible stats: %s", body)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
