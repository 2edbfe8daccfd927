package figures

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/platform"
	"omxsim/sim"
)

// The event-order digest is the second behavioural contract next to
// the golden tables: the tables print rounded µs and MiB/s, the digest
// changes when any process resumes or any frame leaves a NIC at a
// different virtual time. figures/testdata/digests.golden holds one
// "<section> <hex>" line per cheap section (`make digests` rewrites
// it); this test re-renders each of them in the fast gate.
func TestDigestsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/digests.golden")
	if err != nil {
		t.Fatalf("reading committed digests: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 {
		t.Fatal("committed digests file is empty")
	}
	for _, line := range lines {
		name, want, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		s, ok := SectionByName(name)
		if !ok {
			t.Fatalf("digest line names no section: %q", line)
		}
		if got := fmt.Sprintf("%016x", s.Digest()); got != want {
			t.Errorf("section %q digest %s, committed %s: simulated events moved", name, got, want)
		}
	}
}

// TestDigestSerialMatchesParallel: a section's digest combines the
// digests of every world it built, whatever goroutine built it, so a
// one-worker pool and a parallel one agree.
func TestDigestSerialMatchesParallel(t *testing.T) {
	s, _ := SectionByName("fig10")
	serial, parallel := s.digest(1), s.digest(4)
	if serial != parallel {
		t.Fatalf("fig10 digest serial %016x, parallel %016x", serial, parallel)
	}
	if serial == 0 {
		t.Fatal("fig10 digest is 0: no simulation was covered")
	}
}

// TestDigestStricterThanGolden adds 1 ns to the cost of building one
// outgoing skbuff on a two-host Open-MX ping-pong. No golden table
// prints a nanosecond, but every frame after the first leaves 1 ns
// later, so the digest must change.
func TestDigestStricterThanGolden(t *testing.T) {
	run := func(extraNs int64) uint64 {
		p := platform.Clovertown()
		p.OMXTxBuildCost += extraNs
		c := cluster.New(p)
		defer c.Close()
		c.E.EnableDigest()
		a, b := c.NewHost("node0"), c.NewHost("node1")
		cluster.Link(a, b)
		ta, tb := openmx.Attach(a, omxCfg(false)), openmx.Attach(b, omxCfg(false))
		if _, delivered, _ := pingPong(c, ta.Open(0, 2), tb.Open(0, 2), 16<<10, 0, 4, sim.Second); delivered != 4 {
			t.Fatalf("ping-pong delivered %d of 4 round trips", delivered)
		}
		return c.E.Digest()
	}
	base := run(0)
	if again := run(0); again != base {
		t.Fatalf("digest not run-to-run stable: %016x then %016x", base, again)
	}
	if shifted := run(1); shifted == base {
		t.Fatalf("1 ns more OMXTxBuildCost left the digest at %016x", base)
	}
}
