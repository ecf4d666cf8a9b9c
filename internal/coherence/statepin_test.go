package coherence_test

import (
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/apps/gauss"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// coherenceImage is what TestCoherenceStateBytesPinned compares at a stop:
// the hash of the coherence layer's snapshot bytes, an FNV-1a hash of the
// watchdog's stall-report text, and the invariant checker's verdict taken
// mid-run (empty without the checker).
type coherenceImage struct {
	state, report uint64
	final         string
}

// stopAndCapture runs Gauss-SM (procs processors, an n x n system) to the
// quantum boundary stop and captures the coherence layer's image there. The
// boundary must have a transaction in flight with requests queued behind it
// and a recall in flight, so the image covers the waiter queue and the
// recall's fields; above 64 processors it must also hold sharer sets in both
// the inline and the spilled form.
func stopAndCapture(t *testing.T, procs, n int, stop sim.Time, check bool) coherenceImage {
	t.Helper()
	cfg := cost.Default(procs)
	cfg.SMCheck = check
	var img coherenceImage
	captured := false
	errStop := errors.New("planned stop")
	cfg.OnBuild = func(m any) {
		mm := m.(*machine.SMMachine)
		mm.Eng.AddQuantumHook(func(now sim.Time) {
			if captured || now < stop {
				return
			}
			captured = true
			if now != stop {
				t.Errorf("first boundary at or after %d is %d", stop, now)
			}
			if qb, _, r := mm.Pr.InFlight(); qb == 0 || r == 0 {
				t.Errorf("@%d: %d blocks with queued requests and %d recalls in flight; the pin needs both", now, qb, r)
			}
			if inline, spilled := mm.Pr.SharerForms(); procs > 64 && (inline == 0 || spilled == 0) {
				t.Errorf("@%d: %d inline and %d spilled sharer sets; the pin needs both", now, inline, spilled)
			}
			var enc snapshot.Enc
			mm.Pr.EncodeState(&enc)
			img.state = snapshot.Hash(enc.Bytes())
			h := fnv.New64a()
			h.Write([]byte(mm.Pr.StallReport()))
			img.report = h.Sum64()
			if ck := mm.Pr.Checker(); ck != nil {
				if err := ck.Final(); err != nil {
					img.final = err.Error()
				}
			}
			mm.Eng.Abort(errStop)
		})
	}
	res := gauss.RunSM(cfg, gauss.Params{N: n, Seed: 1}).Res
	if !captured {
		t.Fatalf("run ended before cycle %d", stop)
	}
	if !errors.Is(res.Err, errStop) {
		t.Fatalf("run error %v, want the planned stop", res.Err)
	}
	return img
}

// TestCoherenceStateBytesPinned pins the coherence layer's observable state
// mid-transaction — snapshot bytes, stall report, and the checker's verdict,
// with forensics off and with the checker armed — to literals recorded
// before the directory's storage was last restructured. A change to how
// entries, transactions, waiter queues or watchers are stored must leave all
// of them unchanged: checkpoints from older builds still verify on resume
// only if the state bytes are identical.
func TestCoherenceStateBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		stop  sim.Time
		check bool
		want  coherenceImage
	}{
		// Two blocks queue requests behind a recall.
		{82100, false, coherenceImage{0x71c41a45676aa334, 0x92540b3814e8a65a, ""}},
		{82100, true, coherenceImage{0x2268eba60c69c58, 0x30aaf4c828160016,
			"coherence: invariant \"conservation\" violated @82100: block 0x20000000000 home 0: transaction still in flight at end of run (busy=true waiters=2)\n" +
				"    @81722 txn done: state=2 owner=4 sharers=0\n" +
				"    @81722 grant GETX to 4 (data=true, arrives @81822)\n" +
				"    @81722 defer GETX from 2 until @81922 (settle)\n" +
				"    @81722 defer GETX from 3 until @81922 (settle)\n" +
				"    @81722 defer GETS from 0 until @81922 (settle)\n" +
				"    @81922 recall owner 4 (GETX from 2)\n" +
				"    @81922 queue GETX from 3 (txn in flight)\n" +
				"    @81922 queue GETS from 0 (txn in flight)"}},
		// One block queues behind a recall while a spinner watches a flag.
		{162000, false, coherenceImage{0x4d0b311bf4c83a54, 0xf893821f3af4e87a, ""}},
		{162000, true, coherenceImage{0x977e13ce6e55f447, 0xbb96d0b82c2b888a,
			"coherence: invariant \"conservation\" violated @162000: block 0x20000000000 home 0: transaction still in flight at end of run (busy=true waiters=1)\n" +
				"    @161430 ack from 0 (data=false)\n" +
				"    @161441 queue GETS from 0 (txn in flight)\n" +
				"    @161610 ack from 1 (data=false)\n" +
				"    @161633 txn done: state=2 owner=3 sharers=0\n" +
				"    @161633 grant GETX to 3 (data=true, arrives @161733)\n" +
				"    @161633 defer GETS from 0 until @161833 (settle)\n" +
				"    @161833 recall owner 3 (GETS from 0)\n" +
				"    @161996 queue GETX from 4 (txn in flight)"}},
	} {
		if got := stopAndCapture(t, 8, 64, tc.stop, tc.check); got != tc.want {
			t.Errorf("stop %d check=%v:\n got {%#x, %#x, %q}\nwant {%#x, %#x, %q}", tc.stop, tc.check,
				got.state, got.report, got.final, tc.want.state, tc.want.report, tc.want.final)
		}
	}
}

// TestCoherenceStateBytesPinnedWide is TestCoherenceStateBytesPinned on a
// machine of more than 64 nodes, where a sharer set is two map words wide
// and is held as a short list until its fifth member: Gauss-SM at P=128
// (N=128) stopped where 232 shared blocks have one to four sharers and 32
// have more, with recalls and queued requests in flight. The literals were
// recorded from the build that kept every sharer set as a full map.
func TestCoherenceStateBytesPinnedWide(t *testing.T) {
	for _, tc := range []struct {
		check bool
		want  coherenceImage
	}{
		{false, coherenceImage{0x214ac54eabba847, 0xdaf88e86aceb6bf2, ""}},
		{true, coherenceImage{0xd482d93ad51ecca3, 0x8ac1b2cf0bfc1ffd,
			"coherence: invariant \"conservation\" violated @150600: block 0x1000000052a home 10: transaction still in flight at end of run (busy=true waiters=0)\n" +
				"    @77911 ack from 81 (data=true)\n" +
				"    @77942 txn done: state=1 owner=-1 sharers=2\n" +
				"    @77942 grant GETS to 82 (data=true, arrives @78042)\n" +
				"    @145876 inval round: 1 sharers (UPGRADE from 81)\n" +
				"    @146752 ack from 82 (data=false)\n" +
				"    @146791 txn done: state=2 owner=81 sharers=0\n" +
				"    @146791 grant UPGRADE to 81 (data=false, arrives @146891)\n" +
				"    @148366 recall owner 81 (GETX from 82)"}},
	} {
		if got := stopAndCapture(t, 128, 128, 150600, tc.check); got != tc.want {
			t.Errorf("check=%v:\n got {%#x, %#x, %q}\nwant {%#x, %#x, %q}", tc.check,
				got.state, got.report, got.final, tc.want.state, tc.want.report, tc.want.final)
		}
	}
}
