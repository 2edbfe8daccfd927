package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// Property: a randomized bidirectional workload — mixed tiny through
// multi-megabyte messages, shuffled posting order, deterministic frame
// loss in both directions, I/OAT enabled — delivers every payload
// intact and leaks no skbuffs or ring slots.
func TestPropertyStressBidirectionalWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool { return propertyStressRun(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// propertyStressRun is one seeded property-test round (extracted so
// a failing seed can be replayed directly).
func propertyStressRun(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		IOAT:              rng.Intn(2) == 0,
		RetransmitTimeout: 2 * sim.Millisecond,
	}
	rng.Intn(2) // once drew a since-deleted option; kept so every later draw is unchanged
	pr := newPair(t, cfg, cfg)
	if rng.Intn(2) == 0 {
		da := rng.Intn(11) + 7
		db := rng.Intn(11) + 7
		na, nb := 0, 0
		pr.sa.H.NIC.Hose().Drop = func(*wire.Frame) bool { na++; return na%da == 1 }
		pr.sb.H.NIC.Hose().Drop = func(*wire.Frame) bool { nb++; return nb%db == 1 }
	}
	const count = 6
	sizesAB := make([]int, count)
	sizesBA := make([]int, count)
	var srcAB, dstAB, srcBA, dstBA []*hostmem.Buffer
	for i := 0; i < count; i++ {
		sizesAB[i] = rng.Intn(1 << uint(8+rng.Intn(13)))
		sizesBA[i] = rng.Intn(1 << uint(8+rng.Intn(13)))
		srcAB = append(srcAB, pr.sa.H.Alloc(sizesAB[i]))
		dstAB = append(dstAB, pr.sb.H.Alloc(sizesAB[i]))
		srcBA = append(srcBA, pr.sb.H.Alloc(sizesBA[i]))
		dstBA = append(dstBA, pr.sa.H.Alloc(sizesBA[i]))
		srcAB[i].Fill(byte(2*i + 1))
		srcBA[i].Fill(byte(2*i + 2))
	}
	doneA, doneB := false, false
	pr.e.Go("rankA", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, pr.epA.ISend(p, pr.epB.Addr(), uint64(i), srcAB[i], 0, sizesAB[i]))
			reqs = append(reqs, pr.epA.IRecv(p, uint64(100+i), ^uint64(0), dstBA[i], 0, sizesBA[i]))
		}
		for _, r := range reqs {
			pr.epA.Wait(p, r)
		}
		doneA = true
	})
	pr.e.Go("rankB", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, pr.epB.ISend(p, pr.epA.Addr(), uint64(100+i), srcBA[i], 0, sizesBA[i]))
			reqs = append(reqs, pr.epB.IRecv(p, uint64(i), ^uint64(0), dstAB[i], 0, sizesAB[i]))
		}
		for _, r := range reqs {
			pr.epB.Wait(p, r)
		}
		doneB = true
	})
	pr.e.RunUntil(pr.e.Now() + 20*sim.Second)
	if !doneA || !doneB {
		t.Logf("seed %d: stuck (doneA=%v doneB=%v) blocked=%v stats=%+v",
			seed, doneA, doneB, pr.e.BlockedProcs(), pr.sb.Stats)
		return false
	}
	for i := 0; i < count; i++ {
		if !hostmem.Equal(srcAB[i], dstAB[i]) || !hostmem.Equal(srcBA[i], dstBA[i]) {
			t.Logf("seed %d: message %d corrupted", seed, i)
			return false
		}
	}
	// Resource leak checks: all skbuffs freed, all ring slots back.
	if pr.sa.H.NIC.SkbsLive() != 0 || pr.sb.H.NIC.SkbsLive() != 0 {
		t.Logf("seed %d: leaked skbuffs %d/%d", seed, pr.sa.H.NIC.SkbsLive(), pr.sb.H.NIC.SkbsLive())
		return false
	}
	if pr.epA.slots.Free() != proto.RingSlots || pr.epB.slots.Free() != proto.RingSlots {
		t.Logf("seed %d: leaked ring slots A=%d/%d B=%d/%d evqA=%d evqB=%d uxA=%d uxB=%d",
			seed, pr.epA.slots.Free(), proto.RingSlots, pr.epB.slots.Free(), proto.RingSlots,
			len(pr.epA.evq), len(pr.epB.evq), len(pr.epA.ux), len(pr.epB.ux))
		for _, c := range pr.epB.rxChans {
			t.Logf("  B rxChan complete=%d pending=%d asm=%d", c.Edge(), c.Pending(), len(c.asm))
		}
		for _, ev := range pr.epB.evq {
			t.Logf("  B evq: kind=%d seq=%d slot=%d frag=%d", ev.kind, ev.seq, ev.slot, ev.fragID)
		}
		for _, ev := range pr.epA.evq {
			t.Logf("  A evq: kind=%d seq=%d slot=%d frag=%d", ev.kind, ev.seq, ev.slot, ev.fragID)
		}
		return false
	}
	return true
}
