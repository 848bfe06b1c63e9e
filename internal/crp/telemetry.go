package crp

import (
	"errors"

	"pufatt/internal/telemetry"
)

// claims counts acknowledged-claim attempts by result. The result label is
// the interesting one operationally: a rising "replay" count is either a
// protocol bug or an actual replay attempt, and "exhausted" claims signal a
// device near the end of its enrolled lifetime.
var claims = telemetry.Default().CounterVec("crp_claims_total",
	"Seed claims against CRP databases, by result.", "result")

// CountClaim records the outcome of an acknowledged-claim attempt in
// crp_claims_total and returns err. Frames applied by replay or
// replication are not claim attempts and are never counted.
func CountClaim(err error) error {
	result := ""
	switch {
	case err == nil:
		result = "ok"
	case errors.Is(err, ErrEpochRetired):
		result = "retired"
	case errors.Is(err, ErrExhausted):
		result = "exhausted"
	case errors.Is(err, ErrSeedUsed):
		result = "replay"
	case errors.Is(err, ErrUnknownSeed):
		result = "unknown"
	default:
		return err
	}
	claims.With(result).Inc()
	return err
}
