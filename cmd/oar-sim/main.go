// Command oar-sim replays the scenario figures of the paper as live event
// timelines: every Opt-deliver, Opt-undeliver, A-deliver and reply adoption
// is printed as it happens, labelled with the process and epoch — an
// executable rendition of Figures 1–4.
//
//	oar-sim -scenario fig2                     # failure-free run (optimistic phase only)
//	oar-sim -scenario fig3                     # sequencer crash, no undelivery
//	oar-sim -scenario fig4                     # minority partition: Opt-undeliver + repair
//	oar-sim -scenario fig1b                    # the baseline's external inconsistency
//	oar-sim -scenario fig1b -protocol oar      # the same fault against another backend
//
// The fault scenarios (fig1b, fig4) replay their script against any
// registered ordering backend via -protocol; the sequencer-shaped scripts
// are meaningful for oar and fixedseq.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/cnsvorder"
	"repro/internal/experiments"
	"repro/internal/memnet"
	"repro/internal/proto"
)

// timeline prints protocol events with relative timestamps.
type timeline struct {
	mu    sync.Mutex
	start time.Time
}

var _ backend.Tracer = (*timeline)(nil)

func newTimeline() *timeline { return &timeline{start: time.Now()} }

func (tl *timeline) log(format string, args ...any) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	fmt.Printf("%8.2fms  %s\n", float64(time.Since(tl.start).Microseconds())/1000, fmt.Sprintf(format, args...))
}

func (tl *timeline) Issue(c proto.NodeID, r proto.RequestID, cmd []byte) {
	tl.log("%-4v OAR-multicast %v %q", c, r, cmd)
}

func (tl *timeline) OptDeliver(s proto.NodeID, e uint64, r proto.RequestID, p uint64, res []byte) {
	tl.log("%-4v Opt-deliver   %v @ pos %d -> %q (epoch %d)", s, r, p, res, e)
}

func (tl *timeline) OptUndeliver(s proto.NodeID, e uint64, r proto.RequestID) {
	tl.log("%-4v OPT-UNDELIVER %v (epoch %d)  << rollback", s, r, e)
}

func (tl *timeline) ADeliver(s proto.NodeID, e uint64, r proto.RequestID, p uint64, res []byte) {
	tl.log("%-4v A-deliver     %v @ pos %d -> %q (epoch %d)", s, r, p, res, e)
}

func (tl *timeline) EpochClose(s proto.NodeID, e uint64, in cnsvorder.Input, res cnsvorder.Result) {
	tl.log("%-4v epoch %d closed: |Good|=%d |Bad|=%d |New|=%d", s, e, len(res.Good), len(res.Bad), len(res.New))
}

func (tl *timeline) Adopt(c proto.NodeID, r proto.RequestID, reply proto.Reply) {
	tl.log("%-4v ADOPTS reply for %v: %q @ pos %d, weight %v", c, r, reply.Result, reply.Pos, reply.Weight)
}

func (tl *timeline) ReadAdopt(c proto.NodeID, r proto.RequestID, reply proto.Reply) {
	tl.log("%-4v ADOPTS read  for %v: %q @ pos %d (epoch %d), weight %v", c, r, reply.Result, reply.Pos, reply.Epoch, reply.Weight)
}

func main() {
	os.Exit(run())
}

func run() int {
	scenario := flag.String("scenario", "fig2", "fig2 | fig3 | fig4 | fig1b")
	protoName := flag.String("protocol", "", "ordering backend for the fault scenarios (default: fig4 oar, fig1b fixedseq)")
	flag.Parse()

	pick := func(fallback cluster.Protocol) (cluster.Protocol, error) {
		if *protoName == "" {
			return fallback, nil
		}
		if _, err := backend.Lookup(*protoName); err != nil {
			return "", err
		}
		return cluster.Protocol(*protoName), nil
	}

	switch *scenario {
	case "fig2":
		return fig2()
	case "fig3":
		return fig3()
	case "fig4":
		p, err := pick(cluster.OAR)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-sim: %v\n", err)
			return 2
		}
		return scenarioOutcome(
			fmt.Sprintf("Figure 4: minority partition; the minority must roll back (%v, n=5)", p),
			func(tl *timeline) (experiments.Outcome, error) {
				return experiments.RunFigure4(p, tl)
			})
	case "fig1b":
		p, err := pick(cluster.FixedSeq)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-sim: %v\n", err)
			return 2
		}
		return scenarioOutcome(
			fmt.Sprintf("Figure 1(b): crash between reply and ordering (%v)", p),
			func(tl *timeline) (experiments.Outcome, error) {
				return experiments.RunFigure1b(p, tl)
			})
	default:
		fmt.Fprintf(os.Stderr, "oar-sim: unknown scenario %q\n", *scenario)
		return 2
	}
}

func scenarioOutcome(title string, fn func(*timeline) (experiments.Outcome, error)) int {
	fmt.Println(title)
	fmt.Println()
	tl := newTimeline()
	out, err := fn(tl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-sim: %v\n", err)
		return 1
	}
	fmt.Printf("\noutcome: %d external inconsistencies, %d order divergences, %d rollbacks\n",
		out.External, out.TotalOrder, out.Undeliveries)
	return 0
}

func fig2() int {
	fmt.Println("Figure 2: failure-free run — only the optimistic phase executes (OAR, n=3)")
	fmt.Println()
	tl := newTimeline()
	ck := check.New(3)
	c, err := cluster.New(cluster.Options{
		N: 3, FD: cluster.FDNever, Tracer: backend.MultiTracer(ck, tl),
		Net: netDelay(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	cluster.WaitUntil(5*time.Second, func() bool { return c.TotalStats().OptDelivered == 15 })
	return verdict(ck)
}

func fig3() int {
	fmt.Println("Figure 3: the sequencer crashes; survivors run the conservative phase;")
	fmt.Println("the majority guarantee protects every delivered message (OAR, n=3)")
	fmt.Println()
	tl := newTimeline()
	ck := check.New(3)
	c, err := cluster.New(cluster.Options{
		N: 3, Tracer: backend.MultiTracer(ck, tl),
		Net:               netDelay(),
		FDTimeout:         25 * time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer c.Stop()
	cli, err := c.NewClient()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 2; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	tl.log(">>>> crashing the sequencer p0")
	ck.MarkCrashed(0)
	c.Crash(0, 0)
	for i := 3; i <= 4; i++ {
		if _, err := cli.Invoke(ctx, []byte(fmt.Sprintf("m%d", i))); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return verdict(ck)
}

func verdict(ck *check.Checker) int {
	vs := ck.Verify()
	fmt.Printf("\ntrace checker: %d violations", len(vs))
	for _, v := range vs {
		fmt.Printf("\n  %v", v)
	}
	fmt.Println()
	if len(vs) > 0 {
		return 1
	}
	return 0
}

func netDelay() memnet.Options {
	return memnet.Options{
		MinDelay: 500 * time.Microsecond,
		MaxDelay: 1500 * time.Microsecond,
		Seed:     3,
	}
}
