package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// shutdownGrace is how long Run lets in-flight requests drain after its
// context fires before cancelling their solves and closing connections.
const shutdownGrace = 5 * time.Second

// Run is the daemon loop of cmd/wtamd: listen on addr, announce the bound address on out (one
// "wtamd: listening on http://<host:port>" line — with port 0 this is
// how callers and scripts learn the real port), and serve until ctx is
// cancelled. Shutdown is graceful: the listener closes immediately,
// in-flight requests get shutdownGrace to finish, then their solves are
// cancelled and the connections closed.
func Run(ctx context.Context, addr string, cfg Config, out io.Writer) error {
	sv, err := NewCluster(cfg)
	if err != nil {
		return err
	}
	defer sv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wtamd: listening on http://%s\n", ln.Addr())
	fmt.Fprintf(out, "wtamd: %d workers x %d solve workers, cache %s\n",
		sv.cfg.Workers, sv.cfg.SolveWorkers, cacheDesc(sv))
	if sv.rt != nil {
		fmt.Fprintf(out, "wtamd: sharding by digest across a ring of %d nodes, self %s\n",
			sv.rt.ring.Len(), sv.rt.self)
	}
	if sv.escq != nil {
		fmt.Fprintf(out, "wtamd: escalating unproven cache entries (budget %s)\n",
			sv.cfg.EscalateBudget)
	}

	srv := &http.Server{
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve never returns nil; anything but the "we closed it"
		// sentinel is a real listener failure.
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "wtamd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err = srv.Shutdown(shutCtx)
	sv.Close() // cancel any solves still running past the grace period
	if err != nil {
		_ = srv.Close()
	}
	return nil
}

func cacheDesc(sv *Server) string {
	if sv.results == nil {
		return "disabled"
	}
	return fmt.Sprintf("%d entries", sv.cfg.CacheSize)
}
