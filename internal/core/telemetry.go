package core

import "pufatt/internal/telemetry"

// PUF-pipeline instruments, read by the benchmark as per-op layer counts.
// The ECC correction count is the reliability signal of the reverse fuzzy
// extractor: corrected bits per recovery track the device's raw bit-error
// rate, and a drift upward is aging or an environmental shift long before
// recoveries start failing outright.
var (
	eccRecoveries = telemetry.Default().Counter("ecc_recoveries_total",
		"Verifier-side sketch recoveries performed.")
	eccCorrectedBits = telemetry.Default().Counter("ecc_corrected_bits_total",
		"Raw response bits corrected by the secure sketch during recovery.")
	batchItems = telemetry.Default().Counter("puf_batch_items_total",
		"Challenges evaluated through the parallel batch engine.")
)
