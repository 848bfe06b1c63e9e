package store

import "pufatt/internal/telemetry"

// Recovery instruments: each counts a crash-recovery outcome the store
// chose at open, which an operator must be able to tell apart from a clean
// start. Claim outcomes feed crp_claims_total through the crp package, so
// operators watch one replay/exhaustion signal regardless of which backend
// serves a device.
var (
	walTornTails = telemetry.Default().Counter("crpstore_wal_torn_tails_total",
		"Torn write-ahead-log tails detected and truncated at open.")
	epochStagingsDiscarded = telemetry.Default().Counter("crpstore_epoch_stagings_discarded_total",
		"Staged re-enrollments discarded (explicitly or as uncommitted cutovers at open).")
	epochRecoveries = telemetry.Default().Counter("crpstore_epoch_recoveries_total",
		"Committed cutovers completed at open from a surviving staged snapshot.")
	epochRetiredOpens = telemetry.Default().Counter("crpstore_epoch_retired_opens_total",
		"Stores opened retired: cutover committed but the staged enrollment was lost.")
)
