package perf

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// StepFromObs converts one step's telemetry into a modelled StepReport:
// the host side comes from the analytic host model evaluated on the
// measured traversal statistics, the GRAPE side from the telemetry's
// simulated pipeline and transfer phases. This is how measured runs
// (with guard overhead, per-step rescaling and evolved clustering) are
// put on the same time axis as the §3 analytic sweep so their optimal
// n_g can be compared.
func StepFromObs(h HostModel, st *core.Stats, r obs.StepReport) StepReport {
	return StepReport{
		HostSeconds:      h.StepSeconds(st),
		HostBuildSeconds: h.BuildSeconds(st.N),
		PipeSeconds:      r.TGrape,
		BusSeconds:       r.TComm,
		Interactions:     st.Interactions,
	}
}
