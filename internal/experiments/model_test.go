package experiments

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestE18MatchesMD1 holds the simulated link to the closed form: at
// every load, on three seeds, every frame waits exactly what Lindley's
// recursion over its send times says, and the mean wait and the mean
// busy period lie within 4 batch-means standard errors of M/D/1. The
// control shows the check has teeth: taking S as the frame's
// serialization alone, without the inter-frame gap every transmitter
// adds, the wait must disagree at every load from 0.5 up.
func TestE18MatchesMD1(t *testing.T) {
	noGap := phys.SerTime(wire.Size(wire.V1, micropacket.TypeDMA, micropacket.MaxPayload))
	for _, seed := range []uint64{7, 11, 101} {
		for _, rho := range e18Loads {
			tr := runMD1(rho, seed, e18Frames(rho))
			if tr.refused != 0 || len(tr.arrived) != e18Frames(rho) {
				t.Fatalf("seed %d ρ=%.1f: %d refused, %d of %d arrived", seed, rho, tr.refused, len(tr.arrived), e18Frames(rho))
			}
			if v := tr.ledger.Violations(); len(v) != 0 {
				t.Fatalf("seed %d ρ=%.1f: %v", seed, rho, v)
			}
			var w sim.Time
			for i, at := range tr.arrived {
				if i > 0 {
					w = max(0, w+e18Service-(tr.sent[i]-tr.sent[i-1]))
				}
				if got := at - tr.sent[i] - e18Service - tr.flight; got != w {
					t.Fatalf("seed %d ρ=%.1f frame %d: waited %v, Lindley says %v", seed, rho, i, got, w)
				}
			}
			pt := tr.compare(e18Service)
			if w, b := pt.agrees(); !w || !b {
				t.Errorf("seed %d ρ=%.1f: W %.1f ns vs model %.1f ±%.1f, busy %.0f ns vs model %.0f ±%.0f", seed, rho,
					pt.waitSim, pt.waitPred, pt.waitSE, pt.busySim, pt.busyPred, pt.busySE)
			}
			ctl := tr.compare(noGap)
			if w, _ := ctl.agrees(); w && rho >= 0.5 {
				t.Errorf("seed %d ρ=%.1f: without the gap the wait still agrees (%.1f ns vs %.1f ±%.1f): the check cannot tell S",
					seed, rho, ctl.waitSim, ctl.waitPred, ctl.waitSE)
			}
		}
	}
}

// TestE3ClosedForms holds both E3 rows to their closed forms, to the
// nanosecond. With S the serialization of one frame plus its
// inter-frame gap, P a fiber's flight, L the switch's latency and a
// hop d = S + 2P + L (a frame's second serialization, at the switch's
// egress, and both fibers):
//
//   - insertion ring, disjoint one-hop arcs: every station sends F frames
//     back to back, and the last lands d after it ends: F·S + d.
//   - token ring: each of the N stations takes V = ⌈F/B⌉ visits, the
//     last sending b = F − (V−1)·B frames and the others B. A visit
//     sending b frames passes the token after max(b·S, H) — the hold
//     runs while the burst serializes, it does not add to it — and the
//     token lands at the next station S + d later. The ring's last visit
//     ends with its last frame's landing, b·S + d after it began.
//
// One term the rotation count leaves out: Start hands station 0 the
// token before the streams' first offers, so the ring opens with an
// empty visit of H + S + d. The control formula drops it, and takes the
// hold as added to the burst, and must miss.
func TestE3ClosedForms(t *testing.T) {
	S := phys.SerTime(e3Wire + phys.DefaultIFG)
	H, B := baseline.TokenHold, baseline.TokenBurst
	for _, nodes := range []int{2, 4, 8} {
		for _, fiber := range []float64{50, 1000} {
			for _, frames := range []int{100, 400} {
				p := Params{Nodes: nodes, FiberM: fiber, Seed: 7}
				d := S + 2*phys.PropTime(fiber) + phys.DefaultSwitchLatency
				if got, want := mustE3(t, e3Insertion, p, frames), sim.Time(frames)*S+d; got != want {
					t.Errorf("insertion ring %d×%d frames on %gm: last delivery %v, want %v", nodes, frames, fiber, got, want)
				}
				rounds := (frames + B - 1) / B
				b := sim.Time(frames - (rounds-1)*B)
				visit := func(b sim.Time) sim.Time { return max(b*S, H) + S + d }
				want := (H + S + d) + sim.Time(nodes*(rounds-1))*visit(sim.Time(B)) +
					sim.Time(nodes-1)*visit(b) + b*S + d
				got := mustE3(t, e3Token, p, frames)
				if got != want {
					t.Errorf("token ring %d×%d frames on %gm: last delivery %v, want %v", nodes, frames, fiber, got, want)
				}
				if control := sim.Time(nodes*(rounds-1))*(sim.Time(B)*S+H+S+d) +
					sim.Time(nodes-1)*(b*S+H+S+d) + b*S + d; control == got {
					t.Errorf("token ring %d×%d frames on %gm: the control formula matched %v", nodes, frames, fiber, got)
				}
			}
		}
	}
}

// mustE3 runs one E3 row and fails the test on a dropped frame.
func mustE3(t *testing.T, run func(Params, int) (sim.Time, uint64), p Params, frames int) sim.Time {
	t.Helper()
	last, drops := run(p, frames)
	if drops != 0 {
		t.Fatalf("%d congestion drops", drops)
	}
	return last
}
