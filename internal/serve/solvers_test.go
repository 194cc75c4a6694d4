package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/socdata"
)

// TestSolversEndpoint pins the capability-discovery surface: GET
// /v1/solvers lists every registered backend plus the portfolio
// combinator, in registration order, with the capability flags.
func TestSolversEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Solvers []solverJSON `json:"solvers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	infos := coopt.Solvers()
	if len(body.Solvers) != len(infos) {
		t.Fatalf("%d solvers listed, registry has %d", len(body.Solvers), len(infos))
	}
	for i, got := range body.Solvers {
		want := infos[i]
		if got.Name != want.Name || got.PowerAware != want.PowerAware ||
			got.Cancellable != want.Cancellable || got.Exact != want.Exact ||
			got.Combinator != want.Combinator || got.Description != want.Description {
			t.Errorf("solver %d: %+v != registry %+v", i, got, want)
		}
	}
	// The exact engines must advertise themselves as such — clients pick
	// a proof-capable backend off this listing, so the flags are API,
	// not decoration. The ILP engine is additionally cancellable (the
	// exhaustive baseline predates cancellation) and must not be listed
	// as a combinator.
	byName := make(map[string]solverJSON)
	for _, s := range body.Solvers {
		byName[s.Name] = s
	}
	ilp, ok := byName["ilp"]
	if !ok {
		t.Fatal("/v1/solvers does not list the ilp engine")
	}
	if !ilp.Exact || !ilp.Cancellable || ilp.Combinator {
		t.Errorf("ilp capabilities exact=%t cancellable=%t combinator=%t, want true/true/false",
			ilp.Exact, ilp.Cancellable, ilp.Combinator)
	}
	if !byName["exhaustive"].Exact {
		t.Error("exhaustive engine not listed as exact")
	}

	// The endpoint is GET-only.
	postResp, _ := postJSON(t, ts.URL+"/v1/solvers", `{}`)
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/solvers: status %d, want 405", postResp.StatusCode)
	}
}

// TestStrategySpecRequests covers the per-request strategy field: spec
// syntax in "strategy" is the one wire spelling of a race subset, every
// spelling of a subset canonicalizes onto one cache key, and bad specs
// fail validation.
func TestStrategySpecRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type result struct {
		Key    string `json:"key"`
		Result struct {
			Strategy string `json:"strategy"`
			Time     int64  `json:"time"`
		} `json:"result"`
	}
	solve := func(t *testing.T, options string) result {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"benchmark":"d695","width":16,"options":%s}`, options))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %s: status %d: %s", options, resp.StatusCode, body)
		}
		var out result
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	spec := solve(t, `{"strategy":"portfolio:partition,exhaustive"}`)
	respelled := solve(t, `{"strategy":" Portfolio: Exhaustive , partition "}`)
	if spec.Key != respelled.Key {
		t.Error("two spellings of one portfolio subset map to different cache keys")
	}
	exact := solve(t, `{"strategy":" Exhaustive "}`)
	if exact.Result.Strategy != "exhaustive" {
		t.Errorf("exhaustive request answered by %q", exact.Result.Strategy)
	}
	if spec.Result.Time > exact.Result.Time {
		t.Errorf("race %d cycles worse than exhaustive alone %d", spec.Result.Time, exact.Result.Time)
	}

	for _, tc := range []struct {
		options string
		want    string
	}{
		{`{"portfolio":"partition,exhaustive"}`, "unknown field"},
		{`{"strategy":"portfolio:warp-drive"}`, "unknown backend"},
		{`{"strategy":"portfolio:partition,partition"}`, "listed twice"},
		{`{"stratgy":"partition"}`, "unknown field"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"benchmark":"d695","width":16,"options":%s}`, tc.options))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("options %s: status %d, want 400 (%s)", tc.options, resp.StatusCode, body)
			continue
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error.Message, tc.want) {
			t.Errorf("options %s: body %s does not mention %q", tc.options, body, tc.want)
		}
	}
}

// TestDistinctStrategiesDistinctCacheEntries is the satellite cache-key
// test: two strategies (and two portfolio subsets) on the same SOC and
// width must occupy distinct cache entries, while spelling variants of
// the same subset share one.
func TestDistinctStrategiesDistinctCacheEntries(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	s := socdata.D695()
	ctx := context.Background()

	keys := make(map[string]string)
	for _, tc := range []struct {
		label string
		opt   coopt.Options
	}{
		{"partition", coopt.Options{Strategy: coopt.StrategyPartition}},
		{"packing", coopt.Options{Strategy: coopt.StrategyPacking}},
		{"diagonal", coopt.Options{Strategy: coopt.StrategyDiagonal}},
		{"exhaustive", coopt.Options{Strategy: coopt.StrategyExhaustive}},
		{"ilp", coopt.Options{Strategy: coopt.StrategyILP}},
		{"portfolio", coopt.Options{Strategy: coopt.StrategyPortfolio}},
		{"portfolio:partition,exhaustive", coopt.Options{Strategy: coopt.StrategyPortfolio, Portfolio: "partition,exhaustive"}},
		{"portfolio:packing,ilp", coopt.Options{Strategy: coopt.StrategyPortfolio, Portfolio: "packing,ilp"}},
	} {
		_, meta, err := sv.Solve(ctx, s, 16, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if meta.Cached {
			t.Errorf("%s: unexpectedly served from cache", tc.label)
		}
		for other, key := range keys {
			if key == meta.Key {
				t.Errorf("%s and %s share cache key %s", tc.label, other, key)
			}
		}
		keys[tc.label] = meta.Key
	}
	if st := sv.Stats(); int(st.Cache.Entries) != len(keys) {
		t.Errorf("cache holds %d entries after %d distinct jobs", st.Cache.Entries, len(keys))
	}

	// Spelling variants of one subset — explicit default, case/space
	// noise, spec order — hit the entries above instead of adding new
	// ones.
	for label, opt := range map[string]coopt.Options{
		"spelled-out default": {Strategy: coopt.StrategyPortfolio, Portfolio: "partition,packing,diagonal"},
		"reordered subset":    {Strategy: coopt.StrategyPortfolio, Portfolio: " Exhaustive ,partition"},
		"reordered ilp race":  {Strategy: coopt.StrategyPortfolio, Portfolio: " ILP , packing "},
	} {
		_, meta, err := sv.Solve(ctx, s, 16, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !meta.Cached {
			t.Errorf("%s: did not hit the canonical subset's cache entry", label)
		}
	}
}

// TestILPOverHTTP is the service-level half of the exactness gate: a
// "-strategy ilp" request answers with the exhaustive baseline's
// testing time, marked proven, under its own cache key — and the
// portfolio:packing,ilp race is never worse than either member.
func TestILPOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type result struct {
		Key    string `json:"key"`
		Result struct {
			Strategy string  `json:"strategy"`
			Time     int64   `json:"time"`
			Proven   bool    `json:"proven"`
			Gap      float64 `json:"gap"`
		} `json:"result"`
	}
	solve := func(t *testing.T, options string) result {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"benchmark":"d695","width":16,"options":%s}`, options))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %s: status %d: %s", options, resp.StatusCode, body)
		}
		var out result
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	ilp := solve(t, `{"strategy":"ilp"}`)
	if ilp.Result.Strategy != "ilp" {
		t.Errorf("ilp request answered by %q", ilp.Result.Strategy)
	}
	if !ilp.Result.Proven {
		t.Errorf("ilp result not proven (gap %f)", ilp.Result.Gap)
	}
	exh := solve(t, `{"strategy":"exhaustive"}`)
	if ilp.Result.Time != exh.Result.Time {
		t.Errorf("ilp %d cycles != exhaustive %d over HTTP", ilp.Result.Time, exh.Result.Time)
	}
	if ilp.Key == exh.Key {
		t.Error("ilp and exhaustive share a cache key")
	}

	race := solve(t, `{"strategy":"portfolio:packing,ilp"}`)
	packing := solve(t, `{"strategy":"packing"}`)
	if race.Result.Time > packing.Result.Time || race.Result.Time > ilp.Result.Time {
		t.Errorf("race %d cycles worse than a member (packing %d, ilp %d)",
			race.Result.Time, packing.Result.Time, ilp.Result.Time)
	}
}
