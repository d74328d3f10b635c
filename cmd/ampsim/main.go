// Command ampsim runs a scripted AmpNet cluster scenario and prints a
// timeline, the Report's own summary and each node's end state — a
// scriptable way to explore topologies and failure patterns beyond the
// canned experiments.
//
// Fault schedules are declarative plans: -plan takes semicolon-
// separated "<offset> <op> <ids>" entries (offsets are relative to the
// end of boot). -report writes the scenario's deterministic JSON report.
//
// Usage examples:
//
//	ampsim -nodes 6 -switches 4 -fiber 1000
//	ampsim -nodes 8 -switches 2 -plan "10ms fail-switch 0; 25ms restore-switch 0" -run 50ms
//	ampsim -nodes 6 -switches 4 -plan "5ms crash-node 3; 20ms reboot-node 3" -traffic -report run.json
//	ampsim -fabric dualring -nodes 6 -plan "10ms fail-switch 0" -traffic
//	ampsim -fabric sharded -nodes 8 -switches 4 -plan "5ms fail-trunk 0; 20ms restore-trunk 0"
//	ampsim -fabric sharded -nodes 16 -switches 8 -shards 8 -plan "5ms fail-trunk 0" -timeline run.trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	ampnet "repro"
	"repro/internal/detmap"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 6, "number of nodes")
	switches := flag.Int("switches", 4, "number of switches (2=dual, 4=quad redundant)")
	fabric := flag.String("fabric", "uniform",
		"fabric shape: uniform (every node to every switch), dualring (counter-rotating rings + trunk), mesh (dual-homed nodes over a trunked switch mesh), sharded (per-shard switches joined by trunks)")
	fiber := flag.Float64("fiber", 50, "fiber meters per link")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	runFor := flag.Duration("run", 30*time.Millisecond, "virtual time to run after boot")
	plan := flag.String("plan", "", `fault plan, e.g. "10ms fail-switch 0; 20ms restore-switch 0"`)
	traffic := flag.Bool("traffic", false, "run a pub/sub load during the scenario")
	showTrace := flag.Bool("trace", false, "print the event timeline at exit")
	deep := flag.Bool("deepphy", false, "run every frame through the real 8b/10b datapath")
	shards := flag.Int("shards", 0,
		"partition the fabric into this many shards, one OS thread each (0/1 = one shard; reports are byte-identical either way)")
	wireV := flag.String("wire", "v2",
		"MicroPacket wire-format version: v1 (one-byte addresses, ≤255 nodes), v2 (uint16 addresses, ≤65535 nodes), or auto")
	report := flag.String("report", "", "write the deterministic scenario report JSON to this file")
	timeline := flag.String("timeline", "",
		"write the engine's wall-clock span timeline (per-shard window/run/barrier-exchange spans) as Chrome trace-event JSON to this file, loadable in Perfetto or chrome://tracing")
	flag.Parse()

	vd := func(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) }
	p, err := ampnet.ParsePlan(*plan)
	if err != nil {
		log.Fatal(err)
	}

	wv, err := ampnet.ParseWireVersion(*wireV)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := ampnet.FabricByName(*fabric, *nodes, *switches, *fiber)
	if err != nil {
		log.Fatal(err)
	}
	topo.Wire = wv
	// Validate the version choice up front so a too-small wire format
	// is a clear error (naming the version) instead of a panic deeper
	// in the build.
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}

	var rec *telemetry.Recorder
	if *timeline != "" {
		rec = telemetry.NewRecorder(nil)
	}

	var c *ampnet.Cluster
	var tr *trace.Tracer
	s := ampnet.Scenario{
		Name: "ampsim",
		Opts: ampnet.Options{
			Fabric: &topo, Seed: *seed,
			DeepPHY: *deep, Shards: *shards,
			Telemetry: rec,
		},
		Plan: p,
		For:  vd(*runFor),
		OnCluster: func(cl *ampnet.Cluster) {
			c = cl
			if *showTrace {
				tr = trace.Attach(cl)
			}
		},
		OnBoot: func(cl *ampnet.Cluster) {
			fmt.Printf("t=%-12v cluster online, ring: %s\n", cl.Now(), cl.Roster())
		},
		OnEvent: func(e ampnet.Event) {
			fmt.Printf("t=%-12v %s\n", c.Now(), e)
		},
	}
	if *traffic {
		s.Loads = append(s.Loads, &ampnet.PubSubLoad{
			Publisher:   0,
			Topic:       1,
			Subscribers: []int{topo.Nodes - 1},
		})
	}
	rep, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}

	// The Report renders itself; what follows it is what a Report does
	// not carry or Summary leaves out: the host-side event count and how
	// many device latencies cost an event, the per-device loss split and
	// each node's end state.
	fmt.Printf("\n%s", rep.Summary())
	fmt.Printf("  events executed %d\n", c.EventsFired())
	fmt.Printf("  device latencies %v\n", c.Holds())
	if fr := rep.Frames; fr != nil {
		if fr.HostCopies > 0 {
			fmt.Printf("  host copies %d (broadcast deliveries; outside conservation)\n", fr.HostCopies)
		}
		for _, k := range detmap.SortedKeys(fr.NodeLosses) {
			fmt.Printf("  lost at %-22s %d\n", k, fr.NodeLosses[k])
		}
		for _, k := range detmap.SortedKeys(fr.SwitchLosses) {
			fmt.Printf("  lost at %-22s %d\n", k, fr.SwitchLosses[k])
		}
	}
	for i := range c.Nodes {
		nd := c.Node(i).DK()
		fmt.Printf("  node %d: state=%-12s hb-sent=%-6d dma-gaps=%-4d epoch=%-4d certified=%v\n",
			nd.Cfg.ID, nd.State, nd.HBSent, nd.DMA.Gaps, nd.Agent.Epoch(), nd.Certified())
	}
	if cfg, ok := c.Node(0).DK().ReadRingConfig(); ok {
		fmt.Printf("  config DB: epoch=%d ring=%d certifier=node %d\n", cfg.Epoch, cfg.RingSize, cfg.Certifier)
	}
	if tr != nil {
		fmt.Printf("\ntimeline:\n%s", tr.String())
	}
	if *report != "" {
		if err := os.WriteFile(*report, rep.JSON(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreport written to %s\n", *report)
	}
	if rec != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteTrace(f, rec.Spans()); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline (%d spans) written to %s — load in Perfetto or chrome://tracing\n",
			rec.Len(), *timeline)
	}
}
