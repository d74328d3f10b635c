package experiments

import (
	"fmt"
	"math"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// E18 checks the simulator against a closed form from outside it: the
// M/G/1 model of a MAC transmit queue (Al Zahr & Gagnaire,
// arXiv:1602.04104). One 50 m link with no device, fed equal 64-byte
// DMA frames at Poisson instants, is an M/D/1 queue whose server is the
// transmitter: a frame holds it for S, its serialization plus the
// inter-frame gap. Pollaczek–Khinchine gives the mean wait
// W = ρS/(2(1−ρ)) and the mean busy period S/(1−ρ). DESIGN.md "E18"
// has the derivation.

// e18Loads is the offered-load sweep.
var e18Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

const (
	e18Periods = 40000 // busy periods per load, about: a run's regeneration cycles
	e18Batches = 20    // batch-means batches, after one warm-up batch
	e18FiberM  = 50
)

// e18Frames is how many frames a load sends: a busy period serves
// 1/(1−ρ) frames on average, so every load runs about e18Periods of
// them, and the heavy loads, whose waits stay correlated longer, get
// the longer runs their batch means need.
func e18Frames(rho float64) int { return int(e18Periods/(1-rho) + 0.5) }

// e18Service is S: a full v1 DMA frame and the gap behind it.
var e18Service = phys.SerTime(wire.Size(wire.V1, micropacket.TypeDMA, micropacket.MaxPayload) + phys.DefaultIFG)

// md1Trace is one load's simulated link: every frame's send and
// arrival time, in send order (the link is FIFO).
type md1Trace struct {
	rho           float64
	sent, arrived []sim.Time
	flight        sim.Time
	refused       int
	ledger        frameacct.Acct // the Net's, after the run
}

// runMD1 sends frames 64-byte DMA frames at Poisson instants with mean
// gap S/rho over one link and records when each was sent and arrived.
func runMD1(rho float64, seed uint64, frames int) *md1Trace {
	k := sim.NewKernel(seed)
	n := phys.NewNet(k)
	tr := &md1Trace{rho: rho, flight: phys.PropTime(e18FiberM),
		sent: make([]sim.Time, 0, frames), arrived: make([]sim.Time, 0, frames)}
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(*phys.Port, phys.Frame) {
		tr.arrived = append(tr.arrived, k.Now())
		n.Acct.Consume(frameacct.ConsumeHost)
	})
	n.Connect(a, b, e18FiberM)
	a.SetCapacity(frames) // the queue is the model: it must never refuse
	pkt := micropacket.NewDMA(1, 2, micropacket.DMAHeader{}, make([]byte, micropacket.MaxPayload))
	// Exp truncates to whole nanoseconds, which shortens the mean gap by
	// half a nanosecond: the truncated +1 puts it back.
	mean := sim.Time(float64(e18Service)/rho + 1)
	var next sim.Timer
	next = k.NewTimer(func() {
		tr.sent = append(tr.sent, k.Now())
		if !a.Send(n.NewFrame(pkt)) {
			tr.refused++
		}
		if len(tr.sent) < frames {
			next.Reset(k.RNG().Exp(mean))
		}
	})
	next.Reset(k.RNG().Exp(mean))
	k.Run()
	tr.ledger = n.Ledger()
	return tr
}

// md1Point compares one trace with the closed form.
type md1Point struct {
	waitSim, waitPred, waitSE float64
	busySim, busyPred, busySE float64
	periods                   int
}

// compare measures the trace's waits and busy periods taking the
// service time to be s, and predicts both from M/D/1 at the load the
// arrivals offer a server of that service time.
func (tr *md1Trace) compare(s sim.Time) md1Point {
	rho := tr.rho * float64(s) / float64(e18Service)
	pt := md1Point{
		waitPred: rho * float64(s) / (2 * (1 - rho)),
		busyPred: float64(s) / (1 - rho)}
	waits := make([]sim.Time, len(tr.arrived))
	var busy []sim.Time
	var start, end sim.Time = 0, -1
	for i, at := range tr.arrived {
		waits[i] = at - tr.sent[i] - s - tr.flight
		// The transmitter held frame i from at-flight-s to at-flight; a
		// gap before it ends a busy period.
		if from := at - tr.flight - s; from > end {
			if end >= 0 {
				busy = append(busy, end-start)
			}
			start = from
		}
		end = at - tr.flight
	}
	busy = append(busy, end-start)
	pt.periods = len(busy)
	pt.waitSim, pt.waitSE = batchMeans(waits, e18Batches)
	pt.busySim, pt.busySE = batchMeans(busy, e18Batches)
	return pt
}

// agrees reports whether simulated wait and busy period both lie
// within 4 batch-means standard errors of the prediction.
func (pt md1Point) agrees() (wait, busy bool) {
	return math.Abs(pt.waitSim-pt.waitPred) <= 4*pt.waitSE, math.Abs(pt.busySim-pt.busyPred) <= 4*pt.busySE
}

// batchMeans splits xs into batches+1 equal batches, drops the first as
// warm-up, and returns the mean of the rest and its standard error
// from the spread of the batch means.
func batchMeans(xs []sim.Time, batches int) (mean, se float64) {
	size := len(xs) / (batches + 1)
	means := make([]float64, batches)
	for b := range means {
		var sum sim.Time
		for _, x := range xs[(b+1)*size : (b+2)*size] {
			sum += x
		}
		means[b] = float64(sum) / float64(size)
		mean += means[b]
	}
	mean /= float64(batches)
	var ss float64
	for _, m := range means {
		// The conversion rounds the square before the sum, so no
		// architecture fuses the two (an FMA) and the golden holds.
		ss += float64((m - mean) * (m - mean))
	}
	return mean, math.Sqrt(ss / float64(batches*(batches-1)))
}

// E18MD1Link tabulates the link's simulated mean wait and busy period
// against M/D/1 over the load sweep.
func E18MD1Link(p Params) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "one link vs M/D/1 (Pollaczek–Khinchine): mean wait and busy period",
		Header: []string{"ρ", "frames", "W sim", "W model", "±SE", "busy sim", "busy model", "±SE", "periods", "within 4 SE"},
	}
	for _, rho := range e18Loads {
		tr := runMD1(rho, p.seed(), e18Frames(rho))
		pt := tr.compare(e18Service)
		w, b := pt.agrees()
		t.Add(fmt.Sprintf("%.1f", rho), fmt.Sprint(len(tr.arrived)),
			fmt.Sprintf("%.1f ns", pt.waitSim), fmt.Sprintf("%.1f ns", pt.waitPred), fmt.Sprintf("%.1f", pt.waitSE),
			fmt.Sprintf("%.0f ns", pt.busySim), fmt.Sprintf("%.0f ns", pt.busyPred), fmt.Sprintf("%.0f", pt.busySE),
			fmt.Sprint(pt.periods), map[bool]string{true: "YES", false: "NO"}[w && b && tr.refused == 0])
	}
	t.Note("S = SerTime(%d B frame + %d B gap) = %v; Poisson arrivals over %d m, ≈ %d busy periods per ρ",
		wire.Size(wire.V1, micropacket.TypeDMA, micropacket.MaxPayload), phys.DefaultIFG, e18Service, e18FiberM, e18Periods)
	t.Note("SE from %d batch means after a warm-up batch; model per Al Zahr & Gagnaire, arXiv:1602.04104", e18Batches)
	return t
}
