package experiments

import (
	"testing"

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
