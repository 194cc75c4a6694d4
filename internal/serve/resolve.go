package serve

import (
	"sync"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// resolvedSOC is a job's SOC after its one canonical pass: the query as
// the client sent it, its content digest, the canonical-order clone the
// service solves and caches, and the permutation relating the two
// (perm[j] is the query index of the canonical core j). Every request
// path resolves its SOC once and threads this value through routing,
// solving and remapping. A resolvedSOC is read-only once built: the
// named-benchmark entries are shared by every request of the process.
type resolvedSOC struct {
	query  *soc.SOC
	digest string
	canon  *soc.SOC
	perm   []int
}

// resolve runs the canonical pass over a valid SOC.
func resolve(s *soc.SOC) *resolvedSOC {
	canon, perm, digest := s.CanonicalWithDigest()
	return &resolvedSOC{query: s, digest: digest, canon: canon, perm: perm}
}

// named maps every socdata.Names() benchmark to its process-wide
// resolution: synthesized, validated and resolved on the first request
// that names it, then served read-only to every later one. The map is
// never written after init.
var named = func() map[string]func() (*resolvedSOC, error) {
	m := make(map[string]func() (*resolvedSOC, error))
	for _, name := range socdata.Names() {
		m[name] = sync.OnceValues(func() (*resolvedSOC, error) {
			s, err := socdata.ByName(name)
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				return nil, err
			}
			return resolve(s), nil
		})
	}
	return m
}()

// namedSOC returns the shared resolution of a built-in benchmark. An
// unknown name gets socdata.ByName's error, which lists every valid
// choice.
func namedSOC(name string) (*resolvedSOC, error) {
	if resolveNamed, ok := named[name]; ok {
		return resolveNamed()
	}
	_, err := socdata.ByName(name)
	return nil, err
}
