package serve

import (
	"fmt"
	"reflect"
	"testing"

	"soctam/internal/socdata"
)

// TestNamedEntriesStayImmutable runs a batch of cold solves over every
// named benchmark, at two widths with both partition and packing, so
// several solves run on each shared canonical SOC at once. Afterwards
// every memoized entry must still deep-equal a fresh construction (no
// solve, remap or response path may write to it), and a later lookup
// must return that same entry.
func TestNamedEntriesStayImmutable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, SolveWorkers: 1, CacheSize: -1})
	var jobs []string
	for _, name := range socdata.Names() {
		for _, w := range []int{16, 24} {
			for _, strat := range []string{"partition", "packing"} {
				// The node limit keeps p93791's final exact step short;
				// the entry is shared whatever the options.
				jobs = append(jobs, fmt.Sprintf(`{"benchmark":%q,"width":%d,"options":{"strategy":%q,"node_limit":20000}}`,
					name, w, strat))
			}
		}
	}
	checkBatchComplete(t, batchLines(t, ts.URL, jobs), len(jobs))

	for _, name := range socdata.Names() {
		rs, err := namedSOC(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := socdata.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		canon, perm := fresh.Canonical()
		if !reflect.DeepEqual(rs.query, fresh) {
			t.Errorf("%s: the shared query SOC no longer equals a fresh construction", name)
		}
		if !reflect.DeepEqual(rs.canon, canon) || !reflect.DeepEqual(rs.perm, perm) {
			t.Errorf("%s: the shared canonical SOC or permutation no longer equals a fresh Canonical()", name)
		}
		if rs.digest != fresh.Digest() {
			t.Errorf("%s: shared digest %s, fresh %s", name, rs.digest, fresh.Digest())
		}
		if again, _ := namedSOC(name); again != rs {
			t.Errorf("%s resolved twice", name)
		}
	}
}
