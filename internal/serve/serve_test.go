package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"soctam/internal/coopt"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// permuted returns a clone of s with its cores shuffled by a fixed
// seed, so tests exercise queries that are equal in content but not in
// presentation.
func permuted(s *soc.SOC, seed int64) *soc.SOC {
	p := s.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.Cores), func(i, j int) { p.Cores[i], p.Cores[j] = p.Cores[j], p.Cores[i] })
	return p
}

// reformatted round-trips s through the .soc text format, changing the
// byte-level presentation (attribute spelling, omitted zero fields)
// without changing content.
func reformatted(t *testing.T, s *soc.SOC) *soc.SOC {
	t.Helper()
	r, err := soc.ParseString(s.EncodeString())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return r
}

// zeroElapsed clears every wall-clock field of a result so two
// deterministic solves can be compared bit for bit: Elapsed (and the
// per-backend Elapsed of a portfolio run) is the only field that
// legitimately differs between two runs of the same job.
func zeroElapsed(res coopt.Result) coopt.Result {
	res.Elapsed = 0
	for i := range res.Portfolio {
		res.Portfolio[i].Elapsed = 0
	}
	return res
}

// The acceptance property of the serving layer: a cache hit for a
// permuted and reformatted query is bit-for-bit identical to what a
// cold solve of that exact query would have returned (ARCHITECTURE.md
// §10), and the digests agree. Both are the canonical-order solve,
// remapped: the service answers every spelling of an SOC with the
// library solve of its Canonical form. That is not always the library
// solve of the query in its own core order — on p93791 at W=16 the
// node-limited final exact step leaves the partition flow's answer
// unproven and core-order dependent (5140117 cycles in library order,
// 5140867 in canonical order) — which is why that case is included.
func TestCacheHitBitForBitAcrossPermutations(t *testing.T) {
	type input struct {
		base  *soc.SOC
		width int
		strat coopt.Strategy
	}
	var inputs []input
	for _, strat := range []coopt.Strategy{coopt.StrategyPartition, coopt.StrategyPacking,
		coopt.StrategyDiagonal, coopt.StrategyPortfolio} {
		inputs = append(inputs, input{socdata.D695(), 16, strat})
	}
	if !testing.Short() {
		inputs = append(inputs, input{socdata.P93791(), 16, coopt.StrategyPartition})
	}
	for _, in := range inputs {
		base, width, strat := in.base, in.width, in.strat
		opt := coopt.Options{Strategy: strat}
		warm := New(Config{})
		defer warm.Close()

		r1, m1, err := warm.Solve(context.Background(), base, width, opt)
		if err != nil {
			t.Fatalf("%s %v: cold solve: %v", base.Name, strat, err)
		}
		if m1.Cached {
			t.Fatalf("%s %v: first solve reported cached", base.Name, strat)
		}

		query := reformatted(t, permuted(base, 7))
		if d := query.Digest(); d != m1.Digest {
			t.Fatalf("%s %v: permuted+reformatted digest %s != original %s", base.Name, strat, d, m1.Digest)
		}
		r2, m2, err := warm.Solve(context.Background(), query, width, opt)
		if err != nil {
			t.Fatalf("%s %v: hit solve: %v", base.Name, strat, err)
		}
		if !m2.Cached {
			t.Fatalf("%s %v: permuted query missed the cache", base.Name, strat)
		}
		if m2.Key != m1.Key {
			t.Errorf("%s %v: cache keys differ across permutation", base.Name, strat)
		}

		// A fresh server answers the same permuted query cold; the hit
		// must match it bit for bit (modulo wall clock, the one
		// nondeterministic field even between two cold solves).
		cold := New(Config{})
		defer cold.Close()
		r3, m3, err := cold.Solve(context.Background(), query, width, opt)
		if err != nil {
			t.Fatalf("%s %v: fresh cold solve: %v", base.Name, strat, err)
		}
		if m3.Cached {
			t.Fatalf("%s %v: fresh server reported a cache hit", base.Name, strat)
		}
		if !reflect.DeepEqual(zeroElapsed(r2), zeroElapsed(r3)) {
			t.Errorf("%s %v: cache hit differs from cold solve:\nhit:  %+v\ncold: %+v", base.Name, strat, r2, r3)
		}
		// And the hit must describe the same testing time as the
		// original-order request (the architecture is the same modulo
		// core renumbering) and as the library solve of the canonical
		// form every spelling maps to.
		if r2.Time != r1.Time {
			t.Errorf("%s %v: hit time %d != original time %d", base.Name, strat, r2.Time, r1.Time)
		}
		canon, _ := query.Canonical()
		lib, err := coopt.Solve(canon, width, opt)
		if err != nil {
			t.Fatalf("%s %v: canonical library solve: %v", base.Name, strat, err)
		}
		if r2.Time != lib.Time {
			t.Errorf("%s %v: hit time %d != canonical-order library solve %d", base.Name, strat, r2.Time, lib.Time)
		}
	}
}

// The remap must be a faithful re-indexing: core i of the query gets
// exactly the TAM (or rectangle) its content-equal core got in the
// original order.
func TestRemapConsistency(t *testing.T) {
	base := socdata.D695()
	sv := New(Config{})
	defer sv.Close()
	r1, _, err := sv.Solve(context.Background(), base, 24, coopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := permuted(base, 3)
	r2, m2, err := sv.Solve(context.Background(), perm, 24, coopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Cached {
		t.Fatal("permuted query missed the cache")
	}
	// Match cores by name (d695 core names are unique).
	tamByName := map[string]int{}
	for i, c := range base.Cores {
		tamByName[c.Name] = r1.Assignment.TAMOf[i]
	}
	for i, c := range perm.Cores {
		if got, want := r2.Assignment.TAMOf[i], tamByName[c.Name]; got != want {
			t.Errorf("core %q assigned to TAM %d in permuted order, %d originally", c.Name, got, want)
		}
	}
	if !reflect.DeepEqual(r1.Partition, r2.Partition) {
		t.Errorf("partition changed under permutation: %v vs %v", r1.Partition, r2.Partition)
	}
}

// Concurrent identical jobs must run exactly one cold solve; everyone
// else shares it (in-flight coalescing or, after it lands, the cache).
func TestInFlightCoalescing(t *testing.T) {
	sv := New(Config{Workers: 2})
	defer sv.Close()
	s := socdata.D695()
	const n = 16
	var wg sync.WaitGroup
	times := make([]soc.Cycles, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := sv.Solve(context.Background(), s, 32, coopt.Options{})
			times[i], errs[i] = res.Time, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if times[i] != times[0] {
			t.Errorf("job %d got %d cycles, job 0 got %d", i, times[i], times[0])
		}
	}
	st := sv.Stats()
	if st.Jobs.Solved != 1 {
		t.Errorf("%d cold solves for %d identical jobs, want exactly 1", st.Jobs.Solved, n)
	}
	if shared := st.Jobs.Coalesced + int64(st.Cache.Hits); shared != n-1 {
		t.Errorf("coalesced %d + hits %d = %d, want %d",
			st.Jobs.Coalesced, st.Cache.Hits, shared, n-1)
	}
	if st.Jobs.Completed != n {
		t.Errorf("completed %d, want %d", st.Jobs.Completed, n)
	}
}

// With the cache disabled every sequential repeat solves cold, but
// results still agree.
func TestCacheDisabled(t *testing.T) {
	sv := New(Config{CacheSize: -1})
	defer sv.Close()
	s := socdata.D695()
	r1, m1, err := sv.Solve(context.Background(), s, 16, coopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, m2, err := sv.Solve(context.Background(), s, 16, coopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cached || m2.Cached {
		t.Error("disabled cache reported a hit")
	}
	if got := sv.Stats(); got.Jobs.Solved != 2 || got.Cache.Enabled {
		t.Errorf("stats = %+v, want 2 cold solves and cache disabled", got)
	}
	if r1.Time != r2.Time {
		t.Errorf("repeat solves disagree: %d vs %d", r1.Time, r2.Time)
	}
}

// Jobs that differ only in worker count or spelled-out defaults share a
// cache entry; jobs that differ in a result-affecting option do not.
func TestJobKeyNormalization(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	s := socdata.D695()
	_, m1, err := sv.Solve(context.Background(), s, 16, coopt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := sv.Solve(context.Background(), s, 16, coopt.Options{Workers: 4, MaxTAMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Cached || m2.Key != m1.Key {
		t.Error("worker-count/default-spelling variants did not share a cache entry")
	}
	_, m3, err := sv.Solve(context.Background(), s, 16, coopt.Options{MaxTAMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cached || m3.Key == m1.Key {
		t.Error("MaxTAMs=2 shared a cache entry with MaxTAMs=10")
	}
	_, m4, err := sv.Solve(context.Background(), s, 16, coopt.Options{MaxPower: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if m4.Cached || m4.Key == m1.Key {
		t.Error("power-constrained job shared a cache entry with the unconstrained one")
	}
}

// TestJobKeyFieldContract puts every exported field of coopt.Options in
// exactly one class and checks it: two values of a keyed field give two
// cache keys after Normalized, a rejected field fails the job with
// errAblation before anything is looked up or solved, and two values of
// a result-neutral field give one key. A field added to coopt.Options
// without a decision fails here.
func TestJobKeyFieldContract(t *testing.T) {
	type pair struct{ a, b coopt.Options }
	keyed := map[string]pair{
		"MaxTAMs":   {coopt.Options{MaxTAMs: 2}, coopt.Options{MaxTAMs: 3}},
		"NodeLimit": {coopt.Options{NodeLimit: 100}, coopt.Options{NodeLimit: 200}},
		"Strategy":  {coopt.Options{Strategy: coopt.StrategyPartition}, coopt.Options{Strategy: coopt.StrategyPacking}},
		"Portfolio": {
			coopt.Options{Strategy: coopt.StrategyPortfolio, Portfolio: "partition"},
			coopt.Options{Strategy: coopt.StrategyPortfolio, Portfolio: "packing"},
		},
		"MaxPower": {coopt.Options{MaxPower: 1800}, coopt.Options{MaxPower: 2500}},
	}
	rejected := map[string]coopt.Options{
		"SkipFinal":   {SkipFinal: true},
		"Enumeration": {Enumeration: coopt.EnumOdometer},
	}
	neutral := map[string]pair{
		"Workers":  {coopt.Options{Workers: 1}, coopt.Options{Workers: 4}},
		"Progress": {coopt.Options{}, coopt.Options{Progress: func(coopt.ProgressEvent) {}}},
		"Budget":   {coopt.Options{}, coopt.Options{Budget: time.Second}},
	}

	// differing names the exported fields in which a and b differ, so
	// each case is checked to vary its own field and no other.
	differing := func(a, b coopt.Options) []string {
		va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
		var names []string
		for i := range va.NumField() {
			if f := va.Type().Field(i); f.IsExported() &&
				!reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
				names = append(names, f.Name)
			}
		}
		return names
	}
	classes := map[string]int{}
	for name, p := range keyed {
		classes[name]++
		if got := differing(p.a, p.b); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("keyed %s: the pair differs in %v", name, got)
		}
		if jobKey("d", 16, p.a.Normalized()) == jobKey("d", 16, p.b.Normalized()) {
			t.Errorf("keyed %s: two values share one cache key", name)
		}
	}
	for name, p := range neutral {
		classes[name]++
		if got := differing(p.a, p.b); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("result-neutral %s: the pair differs in %v", name, got)
		}
		if jobKey("d", 16, p.a.Normalized()) != jobKey("d", 16, p.b.Normalized()) {
			t.Errorf("result-neutral %s: two values split the cache key", name)
		}
	}
	for name, opt := range rejected {
		classes[name]++
		if got := differing(coopt.Options{}, opt); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("rejected %s: the case sets %v", name, got)
		}
		sv := New(Config{})
		if _, _, err := sv.Solve(context.Background(), socdata.D695(), 16, opt); !errors.Is(err, errAblation) {
			t.Errorf("rejected %s: err %v, want errAblation", name, err)
		}
		if st := sv.Stats(); st.Jobs.Solved != 0 || st.Cache.Misses != 0 {
			t.Errorf("rejected %s: jobs %+v, cache %+v; want nothing solved or looked up", name, st.Jobs, st.Cache)
		}
		sv.Close()
	}

	fields := reflect.TypeFor[coopt.Options]()
	for i := range fields.NumField() {
		if f := fields.Field(i); f.IsExported() && classes[f.Name] != 1 {
			t.Errorf("coopt.Options.%s is in %d classes, want exactly 1 (keyed, rejected or result-neutral)", f.Name, classes[f.Name])
		}
	}
}

// A closed server fails fast instead of hanging on the pool.
func TestSolveAfterClose(t *testing.T) {
	sv := New(Config{})
	sv.Close()
	_, _, err := sv.Solve(context.Background(), socdata.D695(), 16, coopt.Options{})
	if err == nil {
		t.Fatal("solve on a closed server succeeded")
	}
}

// An invalid SOC is rejected before digesting or solving.
func TestSolveInvalidSOC(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	bad := &soc.SOC{Name: "bad"}
	if _, _, err := sv.Solve(context.Background(), bad, 16, coopt.Options{}); err == nil {
		t.Fatal("empty SOC accepted")
	}
	if st := sv.Stats(); st.Jobs.Failed != 1 {
		t.Errorf("failed count %d, want 1", st.Jobs.Failed)
	}
}

// The service solves only what its wire can say: each ablation knob of
// coopt.Options is rejected as a failed job, before any cache lookup or
// solve.
func TestSolveRejectsAblationOptions(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	for i, opt := range []coopt.Options{
		{SkipFinal: true},
		{Enumeration: coopt.EnumOdometer},
	} {
		if _, _, err := sv.Solve(context.Background(), socdata.D695(), 16, opt); !errors.Is(err, errAblation) {
			t.Errorf("%+v: err %v, want errAblation", opt, err)
		}
		st := sv.Stats()
		if st.Jobs.Failed != int64(i+1) || st.Jobs.Solved != 0 || st.Cache.Misses != 0 || st.Cache.Entries != 0 {
			t.Errorf("after %+v: jobs %+v, cache %+v; want %d failed and nothing solved or looked up",
				opt, st.Jobs, st.Cache, i+1)
		}
	}
}

// A leader whose request context is cancelled while it waits for a
// pool slot must not poison followers coalesced onto its flight: a
// follower with a live context retries as the new leader and gets the
// real result (the review fix for solveShared's retry loop).
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	var wg sync.WaitGroup
	defer wg.Wait()
	sv := New(Config{Workers: 1, SolveWorkers: 1})
	defer sv.Close()

	// Occupy the only pool slot with a slow solve.
	slow := socdata.P93791()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = sv.Solve(context.Background(), slow, 40, coopt.Options{})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sv.m.inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow solve never took the pool slot")
		}
		time.Sleep(time.Millisecond)
	}

	// The leader queues behind it and is cancelled mid-wait; the
	// follower for the identical job keeps a live context.
	d695 := socdata.D695()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := sv.Solve(leaderCtx, d695, 16, coopt.Options{})
		leaderErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the leader register its flight
	followerDone := make(chan struct {
		res coopt.Result
		err error
	}, 1)
	go func() {
		res, _, err := sv.Solve(context.Background(), d695, 16, coopt.Options{})
		followerDone <- struct {
			res coopt.Result
			err error
		}{res, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancelLeader()

	// The follower must succeed with the real result whatever happened
	// to the leader (if the slow solve finished early the leader may
	// have won the slot and solved; both interleavings are legal).
	want, err := coopt.Solve(d695, 16, coopt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := <-followerDone
	if out.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", out.err)
	}
	if out.res.Time != want.Time {
		t.Errorf("follower got %d cycles, want %d", out.res.Time, want.Time)
	}
	<-leaderErr
}

// A request that missed the cache just before a leader stored its
// result, and reaches the flight table just after the leader removed
// its flight, takes the stored result instead of solving the key again.
func TestSolveSharedTakesResultStoredAfterMiss(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	rs := resolve(socdata.D695())
	norm := coopt.Options{}.Normalized()
	key := jobKey(rs.digest, 16, norm)
	want, err := coopt.Solve(rs.canon, 16, coopt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sv.results.Put(key, want) // the leader's store; its flight is gone
	got, coalesced, err := sv.solveShared(context.Background(), key, rs.canon, 16, norm)
	if err != nil || !coalesced || got.Time != want.Time {
		t.Errorf("solveShared = time %d, coalesced %v, err %v; want the stored %d, true, nil",
			got.Time, coalesced, err, want.Time)
	}
	if st := sv.Stats(); st.Jobs.Solved != 0 || st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("stats after taking the stored result: %+v %+v", st.Jobs, st.Cache)
	}
}
