// Command wtamd is the long-running wrapper/TAM solver daemon: an
// HTTP/JSON service over the library's Solve entry point with a bounded
// worker pool, a digest-keyed result cache and in-flight deduplication,
// so repeated (and permuted, and reformatted) queries over the same
// SOCs are answered from memory bit-for-bit identically to a cold
// solve. See API.md for the endpoint reference and ARCHITECTURE.md §10
// for the serving architecture.
//
// Usage:
//
//	wtamd                                  # 127.0.0.1:8080, all-CPU pool
//	wtamd -addr :9090 -workers 4
//	wtamd -addr 127.0.0.1:0                # free port, printed at startup
//	wtamd -cache-size 65536 -solve-workers 2
//	wtamd -escalate -escalate-budget 5s    # upgrade unproven cache entries
//	wtamd -addr :8081 -self 10.0.0.1:8081 \
//	      -peers 10.0.0.1:8081,10.0.0.2:8081,10.0.0.3:8081   # cluster node
//
// The daemon prints one "wtamd: listening on http://<host:port>" line
// once the listener is up (with -addr port 0 this is how scripts learn
// the real port) and serves until SIGINT/SIGTERM, then shuts down
// gracefully: in-flight requests get a grace period before their solves
// are cancelled.
//
// Deadline-bounded jobs (options.deadline_ms) return the best incumbent
// at the cutoff with its optimality gap instead of an error; truncated
// results are never cached. With -escalate, a background worker
// re-solves unproven cached results with the exact ILP branch-and-bound
// engine — the same optima as the exhaustive baseline at a fraction of
// the cost, so more entries upgrade inside one budget (each attempt
// bounded by -escalate-budget) — during idle capacity, upgrading
// entries it proves optimal in place.
//
// With -peers (a comma-separated host:port list shared by every node)
// and -self (this node's own entry in that list), the daemon joins a
// digest-sharded cluster: each SOC digest has one owning node on a
// consistent-hash ring, jobs are forwarded to their owner, and a down
// owner's jobs degrade to bit-for-bit identical local solves. -max-queue
// bounds admission per node — a saturated node sheds jobs with 429 and
// a Retry-After header instead of queueing unboundedly. See
// ARCHITECTURE.md §15.
//
// Endpoints: POST /v1/solve (one job), POST /v1/batch (many jobs,
// NDJSON lines in completion order), POST /v1/stream (one job, progress
// events and incumbent improvements as NDJSON while it solves), GET
// /v1/solvers (the selectable backends and their capability flags), GET
// /v1/healthz, GET /v1/stats, GET /metrics (Prometheus text
// exposition; /v1/stats is a JSON view over the same registry, so the
// two can never disagree). -pprof additionally exposes the Go runtime
// profiler under GET /debug/pprof/ — off by default, and meant for
// trusted networks only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"soctam/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errBadFlags) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "wtamd:", err)
		os.Exit(1)
	}
}

// errBadFlags marks a flag parse failure the FlagSet already reported.
var errBadFlags = errors.New("bad flags")

func run(ctx context.Context, args []string, out io.Writer) error {
	flags := flag.NewFlagSet("wtamd", flag.ContinueOnError)
	var (
		addr           = flags.String("addr", "127.0.0.1:8080", "address to listen on (port 0 picks a free port, printed at startup)")
		workers        = flags.Int("workers", 0, "concurrently running solves (0 = all CPUs); further jobs queue")
		solveWorkers   = flags.Int("solve-workers", 0, "partition-evaluation goroutines per solve (0 = CPUs/workers); results are identical at any setting")
		cacheSize      = flags.Int("cache-size", 0, "result-cache capacity in entries (0 = 1024, negative disables caching)")
		escalate       = flags.Bool("escalate", false, "re-solve unproven cached results exhaustively in the background, upgrading entries proven optimal")
		escalateBudget = flags.Duration("escalate-budget", 0, "wall-clock budget per background escalation attempt (0 = 2s)")
		peers          = flags.String("peers", "", "comma-separated host:port cluster peer list (every node passes the same list); enables digest-sharded routing")
		self           = flags.String("self", "", "this node's own host:port entry in -peers (its ring identity)")
		maxQueue       = flags.Int("max-queue", 0, "queued jobs admitted per node beyond the running workers before shedding with 429 (0 = unbounded)")
		peerTimeout    = flags.Duration("peer-timeout", 0, "timeout for one forwarded request before degrading to a local solve (0 = 30s)")
		pprofOn        = flags.Bool("pprof", false, "expose the runtime profiler under GET /debug/pprof/ (off by default; enable only on trusted networks)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (wtamd takes only flags)", flags.Arg(0))
	}
	if *escalateBudget != 0 && !*escalate {
		return fmt.Errorf("-escalate-budget requires -escalate")
	}
	if *peers != "" && *self == "" {
		return fmt.Errorf("-peers requires -self (this node's own entry in the list)")
	}
	if *self != "" && *peers == "" {
		return fmt.Errorf("-self requires -peers")
	}
	if *peerTimeout != 0 && *peers == "" {
		return fmt.Errorf("-peer-timeout requires -peers")
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	return serve.Run(ctx, *addr, serve.Config{
		Workers:        *workers,
		SolveWorkers:   *solveWorkers,
		CacheSize:      *cacheSize,
		Escalate:       *escalate,
		EscalateBudget: *escalateBudget,
		MaxQueue:       *maxQueue,
		Peers:          peerList,
		Self:           *self,
		PeerTimeout:    *peerTimeout,
		Pprof:          *pprofOn,
	}, out)
}
