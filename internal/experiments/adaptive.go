package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/memnet"
	"repro/internal/metrics"
)

// E12AdaptiveBatching measures the self-tuning batch window (AutoTune)
// against the static batching knobs, at both ends of the latency/throughput
// trade-off the controller is supposed to cover:
//
//   - a saturated pipelined load (the throughput end), where a larger hold
//     window coalesces more messages per frame, and
//   - a single closed-loop client (the latency end), where any hold is pure
//     added latency and the right window is zero.
//
// Each static window is optimal at one end only; the claim under test is
// that the closed-loop controller lands within a few percent of the *best*
// static setting at BOTH ends without being told the workload. The sweep
// runs at GOMAXPROCS 1 and 4: with real parallelism rounds are shorter and
// frames less full, which is the regime the controller has to notice. All
// rows run under the full trace checker.
func E12AdaptiveBatching(cfg Config) (Result, error) {
	res := Result{
		ID:     "E12",
		Title:  "self-tuned batch window vs static settings (instant network, n=3)",
		Header: []string{"procs", "mode", "sat req/s", "frames/req", "window@sat", "idle p99", "window@idle", "violations"},
		Notes: []string{
			"static rows pin BatchWindow; autotune rows let the controller float it per replica",
			"window@sat / window@idle are the effective hold windows at snapshot time (max across replicas)",
			"the idle p99 of a static window includes the window itself; the tuner must collapse it to ~0",
		},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	type mode struct {
		name     string
		window   time.Duration
		autoTune bool
	}
	modes := []mode{{name: "static/0", window: 0}}
	if !cfg.Quick {
		modes = append(modes, mode{name: "static/200µs", window: 200 * time.Microsecond})
	}
	modes = append(modes,
		mode{name: "static/1ms", window: time.Millisecond},
		mode{name: "autotune", autoTune: true},
	)
	procsSweep := []int{1, 4}

	satTotal := cfg.requests(6000)
	idleTotal := cfg.requests(400)
	const nClients, outstanding = 8, 16

	type cell struct {
		mode    mode
		satRate float64
		idleP99 time.Duration
	}
	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		var cells []cell
		for _, m := range modes {
			opts := cluster.Options{
				Protocol:    cluster.OAR,
				N:           3,
				FD:          cluster.FDNever,
				Net:         memnet.Options{Seed: 12}, // instant delivery
				BatchWindow: m.window,
				AutoTune:    m.autoTune,
			}
			violations := 0

			// Throughput end: a deep pipelined load saturates the group.
			ck := check.New(3)
			opts.Tracer = ck
			c, err := cluster.New(opts)
			if err != nil {
				return res, err
			}
			c.ResetNetStats()
			executed, elapsed, err := pipelinedLoad(c, nClients, outstanding, satTotal)
			net := c.NetTotal()
			satWindow := time.Duration(c.TotalStats().BatchWindowNS)
			c.Stop()
			if err != nil {
				return res, fmt.Errorf("E12 %s (procs=%d, saturated): %w", m.name, procs, err)
			}
			violations += len(ck.Verify())
			satRate := float64(executed) / elapsed.Seconds()

			// Latency end: one closed-loop client, nothing to coalesce.
			ck = check.New(3)
			opts.Tracer = ck
			c, err = cluster.New(opts)
			if err != nil {
				return res, err
			}
			hist := metrics.NewHistogram()
			if _, err = runClosedLoop(c, 1, idleTotal, hist); err != nil {
				c.Stop()
				return res, fmt.Errorf("E12 %s (procs=%d, idle): %w", m.name, procs, err)
			}
			idleWindow := time.Duration(c.TotalStats().BatchWindowNS)
			c.Stop()
			violations += len(ck.Verify())
			idle := hist.Snapshot()

			cells = append(cells, cell{mode: m, satRate: satRate, idleP99: idle.P99})
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(procs),
				m.name,
				fmt.Sprintf("%.0f", satRate),
				fmt.Sprintf("%.1f", float64(net.MessagesSent)/float64(executed)),
				satWindow.String(),
				idle.P99.Round(time.Microsecond).String(),
				idleWindow.String(),
				fmt.Sprint(violations),
			})
			res.Latency = append(res.Latency, latencySample(map[string]string{
				"exp":   "E12",
				"procs": fmt.Sprint(procs),
				"mode":  m.name,
			}, idle, satRate))
		}

		// How close did the tuner land to the best static setting at each
		// end? (The best static differs per end — that is the point.)
		bestSat, bestIdle := 0.0, time.Duration(0)
		for _, cl := range cells {
			if cl.mode.autoTune {
				continue
			}
			if cl.satRate > bestSat {
				bestSat = cl.satRate
			}
			if bestIdle == 0 || cl.idleP99 < bestIdle {
				bestIdle = cl.idleP99
			}
		}
		for _, cl := range cells {
			if !cl.mode.autoTune {
				continue
			}
			res.Notes = append(res.Notes, fmt.Sprintf(
				"procs=%d %s: %.0f%% of best static throughput, idle p99 %+.0f%% vs best static",
				procs, cl.mode.name, 100*cl.satRate/bestSat,
				100*(float64(cl.idleP99)/float64(bestIdle)-1)))
			// The tuner must not lose either end outright. The bounds are
			// loose (shared-CI noise on a throughput measurement is easily
			// tens of percent); EXPERIMENTS.md records the measured margins,
			// which land within a few percent on a quiet machine. The
			// throughput floor only applies when the machine really has
			// `procs` cores: GOMAXPROCS above NumCPU adds scheduling
			// overhead without parallelism, which is an artifact of the
			// host, not a controller regression.
			if !cfg.Quick {
				if cl.satRate < 0.7*bestSat && procs <= runtime.NumCPU() {
					return res, fmt.Errorf("E12 %s (procs=%d): saturated throughput %.0f < 70%% of best static %.0f",
						cl.mode.name, procs, cl.satRate, bestSat)
				}
				if cl.idleP99 > 2*bestIdle {
					return res, fmt.Errorf("E12 %s (procs=%d): idle p99 %v > 2x best static %v",
						cl.mode.name, procs, cl.idleP99, bestIdle)
				}
			}
		}
	}
	return res, nil
}
