package core_test

import (
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/experiments"
)

// runFigure4WithTracer runs the Figure 4 scenario with an extra tracer
// attached (exercising the cmd/oar-sim integration path).
func runFigure4WithTracer(extra backend.Tracer) (experiments.Outcome, error) {
	return experiments.RunFigure4(cluster.OAR, extra)
}
