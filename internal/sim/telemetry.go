package sim

import "pufatt/internal/telemetry"

// The simulation engines are the innermost hot loop of the whole stack (a
// paper-scale experiment evaluates 10^6 challenges), so instrumentation is
// batched: one pass costs two atomic adds. The benchmark reads all three
// counters as its per-op layer counts.
var (
	levelizedPasses = telemetry.Default().Counter("sim_levelized_passes_total",
		"Levelized floating-mode evaluation passes (one per Engine.Run).")
	gateEvals = telemetry.Default().Counter("sim_gate_evals_total",
		"Effective gates evaluated by the levelized engines (a bitsliced pass counts gates x active lanes).")
	bitslicePasses = telemetry.Default().Counter("sim_bitslice_passes_total",
		"Bitsliced 64-lane evaluation passes (one per SlicedEngine.RunBlock).")
)
