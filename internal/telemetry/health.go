package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Per-device health: rolling aggregates of each device's attestation
// behaviour judged against configurable SLO thresholds. This is the
// fleet-side memory the paper's timing argument implies but a single
// session cannot provide: overclocking and PUF-oracle proxying manifest as
// RTT distribution shifts (Section 4.2), aging and temperature as slow
// false-negative drift (Figures 3–4) — all of them visible only across
// many sessions of one device. The registry folds every observed session
// into per-device aggregates and derives a three-state status:
//
//	ok                — within every SLO
//	degraded          — availability trouble (transport failures, retries,
//	                    quarantine): the device is hard to reach but
//	                    nothing questions its integrity
//	awaiting-reenroll — the device's seed budget emptied (or its epoch was
//	                    retired) before a fresh enrollment went live: a
//	                    planned lifecycle state, worse than degraded (the
//	                    device cannot attest at all) but emphatically not
//	                    suspect — nothing questions its integrity either
//	suspect           — a security-relevant SLO is out of bounds: RTT
//	                    quantiles above the bound (overclocking/proxy
//	                    signature), rejection rate, or response-quality
//	                    drift past the FNR budget
//
// The split mirrors the fleet's compromised-vs-unreachable reporting: the
// regimes demand different operator responses (re-enroll vs investigate
// vs fix the network), so they must not share a status.

// DeviceStatus is the health verdict for one device.
type DeviceStatus int

// Status levels, ordered by severity. Suspect dominates everything: a
// device that is both out of budget and security-suspicious reports
// suspect, because the operator response to suspicion is never "just
// re-enroll it".
const (
	StatusOK DeviceStatus = iota
	StatusDegraded
	StatusAwaitingReenroll
	StatusSuspect
)

// String names the status.
func (s DeviceStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusAwaitingReenroll:
		return "awaiting-reenroll"
	case StatusSuspect:
		return "suspect"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// ParseStatus maps a status name (DeviceStatus.String) back to its
// severity, for consumers that read statuses from JSON. An unknown name
// ranks as degraded: trouble, never clean.
func ParseStatus(name string) DeviceStatus {
	for s := StatusOK; s <= StatusSuspect; s++ {
		if s.String() == name {
			return s
		}
	}
	return StatusDegraded
}

// SLO holds the health thresholds. A zero threshold disables that check,
// so the zero SLO judges nothing; MinSessions is the anti-flap gate — no
// device is judged before it has that many windowed records, which is what
// keeps a briefly-noisy clean device from tripping a false transition.
type SLO struct {
	// MinSessions is the number of windowed records required before any
	// status other than ok can be assigned.
	MinSessions int
	// Window is the rolling-window length in records (sessions and
	// transport failures both count); <=0 means DefaultHealthWindow.
	Window int

	// Suspect thresholds (security-relevant).
	// MaxRTTP95 bounds the device's p95 round-trip time in seconds — the
	// timing SLO; a proxied or overclocked prover inflates exactly this.
	MaxRTTP95 float64
	// MaxFailureRate bounds the windowed rejected/completed fraction.
	MaxFailureRate float64
	// MaxFNR bounds the response-quality drift estimate (EWMA of
	// false-negative-shaped rejections) — the paper's aging/temperature
	// axis.
	MaxFNR float64

	// Degraded thresholds (availability).
	// MaxTransportRate bounds the windowed transport-failure fraction.
	MaxTransportRate float64
	// MaxRetryRate bounds the windowed mean retries per record.
	MaxRetryRate float64
	// MinSeedBudget is the low-watermark on the device's remaining seed
	// budget: at or below it the device degrades with "seed budget low" —
	// the operator's (and the re-enrollment pipeline's) cue to start a
	// fresh epoch before the budget empties. 0 disables the check.
	MinSeedBudget int
}

// DefaultHealthWindow is the rolling-window length when the SLO does not
// choose one.
const DefaultHealthWindow = 64

// DefaultSLO returns a conservative threshold set: judgement after 8
// records, rejection rate under 1/3, FNR drift under 25 %, transport
// failures under 50 %, mean retries under 2. The timing bound MaxRTTP95 is
// deployment-specific (it depends on δ and the link) and therefore unset.
func DefaultSLO() SLO {
	return SLO{
		MinSessions:      8,
		Window:           DefaultHealthWindow,
		MaxFailureRate:   1.0 / 3,
		MaxFNR:           0.25,
		MaxTransportRate: 0.5,
		MaxRetryRate:     2,
	}
}

// Outcome classifies one observed attestation attempt series.
type Outcome uint8

// Session outcomes.
const (
	// OutcomeAccepted is a completed, accepted session.
	OutcomeAccepted Outcome = iota
	// OutcomeRejected is a completed session the verifier rejected.
	OutcomeRejected
	// OutcomeTransport is a session that never completed (transport
	// budget exhausted): an availability datum, not an integrity one.
	OutcomeTransport
)

// SessionObservation is one device-session datum for the registry.
type SessionObservation struct {
	// Outcome classifies the session.
	Outcome Outcome
	// RTT is the verifier-observed round-trip in seconds (completed
	// sessions only; ignored for OutcomeTransport).
	RTT float64
	// RejectClass is the bounded rejection-reason class for rejected
	// sessions ("tag_mismatch" feeds the FNR drift estimate).
	RejectClass string
	// Retries is the number of attempts beyond the first.
	Retries int
}

// Transition records one status change.
type Transition struct {
	Seq    uint64
	Time   time.Time
	From   DeviceStatus
	To     DeviceStatus
	Reason string
}

// DeviceHealth is a point-in-time health snapshot for one device.
type DeviceHealth struct {
	Device string
	Status DeviceStatus
	// Reasons lists the SLO violations behind a non-ok status.
	Reasons []string

	// Lifetime counters.
	Sessions  uint64 // completed (accepted + rejected)
	Accepted  uint64
	Rejected  uint64
	Transport uint64

	// Windowed rates.
	WindowRecords int
	FailureRate   float64
	TransportRate float64
	RetryRate     float64

	// RTT quantiles (lifetime histogram; NaN before any session).
	RTTP50, RTTP95, RTTP99 float64

	// FNREstimate is the response-quality drift EWMA.
	FNREstimate float64

	// Seed-budget burn: claims observed and the last reported remaining
	// budget (-1 when no budget was ever reported).
	SeedsClaimed   uint64
	SeedsRemaining int
	// BudgetExhausted reports that a session failed to claim a seed (empty
	// or retired budget) and no claim has succeeded since — the
	// awaiting-reenroll trigger.
	BudgetExhausted bool

	Quarantined     bool
	QuarantineCount uint64

	// Transitions holds the most recent status changes, oldest first.
	Transitions []Transition
	LastSeen    time.Time
}

// windowRecord is one ring slot of a device's rolling window.
type windowRecord struct {
	outcome Outcome
	retries int32
	fnrHit  bool
}

// maxTransitions bounds the per-device transition history.
const maxTransitions = 16

// deviceState is the registry's mutable per-device record.
type deviceState struct {
	rtt    *Histogram // the existing histogram type: lock-free quantiles
	window ring[windowRecord]

	sessions, accepted, rejected, transport uint64
	fnrEst                                  float64
	fnrSeeded                               bool
	seedsClaimed                            uint64
	seedsRemaining                          int
	budgetExhausted                         bool
	budgetLow                               bool // mirrored into the watermark gauge
	quarantined                             bool
	quarantineCount                         uint64

	status      DeviceStatus
	transitions ring[Transition]
	lastSeen    time.Time
}

// HealthRegistry aggregates per-device health against one SLO. Safe for
// concurrent use.
type HealthRegistry struct {
	mu      sync.Mutex
	clock   func() time.Time
	slo     SLO
	seq     uint64
	devices map[string]*deviceState

	onTransition func(device string, tr Transition)
	// budgetLowGauge, when set, tracks how many devices currently sit at or
	// below the seed-budget watermark (attached by the owning telemetry
	// bundle; the registry cannot self-register).
	budgetLowGauge *Gauge
}

// NewHealthRegistry returns an empty registry judging against slo.
func NewHealthRegistry(slo SLO) *HealthRegistry {
	return &HealthRegistry{clock: time.Now, slo: slo, devices: make(map[string]*deviceState)}
}

// SetClock injects the registry clock (nil restores time.Now).
func (h *HealthRegistry) SetClock(now func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	h.clock = now
}

// SetSLO replaces the thresholds. Existing aggregates are kept; statuses
// are re-derived lazily as devices are next observed.
func (h *HealthRegistry) SetSLO(slo SLO) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.slo = slo
}

// SLO returns the current thresholds.
func (h *HealthRegistry) SLO() SLO {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.slo
}

// OnTransition installs a status-change hook (metrics, journal). The hook
// runs outside the registry lock.
func (h *HealthRegistry) OnTransition(fn func(device string, tr Transition)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onTransition = fn
}

// device returns (creating) the state for a device id.
func (h *HealthRegistry) device(id string) *deviceState {
	d, ok := h.devices[id]
	if !ok {
		w := h.slo.Window
		if w <= 0 {
			w = DefaultHealthWindow
		}
		d = &deviceState{
			rtt:            newHistogram(nil),
			window:         newRing[windowRecord](w),
			transitions:    newRing[Transition](maxTransitions),
			seedsRemaining: -1,
		}
		h.devices[id] = d
	}
	return d
}

// Observe folds one session observation into the device's aggregates and
// re-derives its status.
func (h *HealthRegistry) Observe(device string, obs SessionObservation) {
	if device == "" {
		return
	}
	h.mu.Lock()
	d := h.device(device)
	d.lastSeen = h.clock()
	rec := windowRecord{outcome: obs.Outcome, retries: int32(obs.Retries)}
	switch obs.Outcome {
	case OutcomeAccepted:
		d.sessions++
		d.accepted++
		d.rtt.Observe(obs.RTT)
	case OutcomeRejected:
		d.sessions++
		d.rejected++
		d.rtt.Observe(obs.RTT)
		rec.fnrHit = obs.RejectClass == "tag_mismatch"
	case OutcomeTransport:
		d.transport++
	}
	d.window.push(rec)
	if obs.Outcome != OutcomeTransport {
		// Response-quality drift: EWMA of FNR-shaped rejections over
		// completed sessions, α = 2/(window+1).
		sample := 0.0
		if rec.fnrHit {
			sample = 1.0
		}
		alpha := 2.0 / float64(d.window.capacity()+1)
		if !d.fnrSeeded {
			d.fnrEst, d.fnrSeeded = sample, true
		} else {
			d.fnrEst += alpha * (sample - d.fnrEst)
		}
	}
	h.rederive(device, d)
}

// SetBudgetLowGauge mirrors the number of devices at or below the
// seed-budget watermark into a registry gauge (nil detaches). The
// registry cannot self-register metrics, so the owning bundle attaches
// one.
func (h *HealthRegistry) SetBudgetLowGauge(g *Gauge) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.budgetLowGauge = g
}

// refreshBudgetLow re-derives the device's watermark state and keeps the
// budget-low gauge in step. Called with h.mu held.
func (h *HealthRegistry) refreshBudgetLow(d *deviceState) {
	low := d.budgetExhausted ||
		(h.slo.MinSeedBudget > 0 && d.seedsRemaining >= 0 && d.seedsRemaining <= h.slo.MinSeedBudget)
	if low == d.budgetLow {
		return
	}
	d.budgetLow = low
	if h.budgetLowGauge == nil {
		return
	}
	if low {
		h.budgetLowGauge.Add(1)
	} else {
		h.budgetLowGauge.Add(-1)
	}
}

// ObserveSeedClaim records one seed-budget claim and the budget remaining
// after it — the burn-rate ledger. A successful claim with budget left
// also clears any standing exhaustion flag: the device claimed a seed, so
// it is attesting again (typically on a fresh epoch).
func (h *HealthRegistry) ObserveSeedClaim(device string, remaining int) {
	if device == "" {
		return
	}
	h.mu.Lock()
	d := h.device(device)
	d.seedsClaimed++
	d.seedsRemaining = remaining
	if remaining > 0 {
		d.budgetExhausted = false
	}
	h.refreshBudgetLow(d)
	h.rederive(device, d)
}

// ObserveBudgetExhausted records a failed seed claim against an empty or
// retired budget: the device enters the awaiting-reenroll state until a
// later claim succeeds with budget remaining.
func (h *HealthRegistry) ObserveBudgetExhausted(device string) {
	if device == "" {
		return
	}
	h.mu.Lock()
	d := h.device(device)
	d.budgetExhausted = true
	d.seedsRemaining = 0
	h.refreshBudgetLow(d)
	h.rederive(device, d)
}

// ObserveQuarantine records a circuit-breaker transition for the device.
func (h *HealthRegistry) ObserveQuarantine(device string, quarantined bool) {
	if device == "" {
		return
	}
	h.mu.Lock()
	d := h.device(device)
	if quarantined && !d.quarantined {
		d.quarantineCount++
	}
	d.quarantined = quarantined
	h.rederive(device, d)
}

// rederive recomputes the device's status and fires the transition hook on
// change. Called with h.mu held; releases it.
func (h *HealthRegistry) rederive(device string, d *deviceState) {
	status, reasons := evaluate(d, h.slo)
	var (
		fire func(device string, tr Transition)
		tr   Transition
	)
	if status != d.status {
		h.seq++
		tr = Transition{
			Seq: h.seq, Time: h.clock(),
			From: d.status, To: status,
			Reason: strings.Join(reasons, "; "),
		}
		if tr.Reason == "" {
			tr.Reason = "within SLO"
		}
		d.status = status
		d.transitions.push(tr)
		fire = h.onTransition
	}
	h.mu.Unlock()
	if fire != nil {
		fire(device, tr)
	}
}

// windowRates computes the rolling-window aggregates.
func (d *deviceState) windowRates() (records, completed int, failRate, transportRate, retryRate float64) {
	records = d.window.len()
	if records == 0 {
		return 0, 0, 0, 0, 0
	}
	var rejected, transport, retries int
	d.window.each(func(r windowRecord) {
		switch r.outcome {
		case OutcomeRejected:
			rejected++
			completed++
		case OutcomeAccepted:
			completed++
		case OutcomeTransport:
			transport++
		}
		retries += int(r.retries)
	})
	if completed > 0 {
		failRate = float64(rejected) / float64(completed)
	}
	transportRate = float64(transport) / float64(records)
	retryRate = float64(retries) / float64(records)
	return records, completed, failRate, transportRate, retryRate
}

// evaluate derives (status, violated-SLO reasons) for a device.
func evaluate(d *deviceState, slo SLO) (DeviceStatus, []string) {
	records, completed, failRate, transportRate, retryRate := d.windowRates()
	if records < slo.MinSessions {
		return StatusOK, nil // not enough data to judge
	}
	var suspect, degraded []string
	if slo.MaxRTTP95 > 0 && completed > 0 {
		if p95 := d.rtt.Quantile(0.95); p95 > slo.MaxRTTP95 {
			suspect = append(suspect, fmt.Sprintf("rtt p95 %.4gs > slo %.4gs", p95, slo.MaxRTTP95))
		}
	}
	if slo.MaxFailureRate > 0 && failRate >= slo.MaxFailureRate {
		suspect = append(suspect, fmt.Sprintf("failure rate %.2f >= slo %.2f", failRate, slo.MaxFailureRate))
	}
	if slo.MaxFNR > 0 && d.fnrEst >= slo.MaxFNR {
		suspect = append(suspect, fmt.Sprintf("fnr drift %.3f >= slo %.3f", d.fnrEst, slo.MaxFNR))
	}
	if len(suspect) > 0 {
		return StatusSuspect, suspect
	}
	if d.budgetExhausted {
		// Out of budget with no live enrollment: the planned end of an
		// epoch's lifetime, not an integrity signal — but the device cannot
		// attest until re-enrolled, so it outranks plain degradation.
		return StatusAwaitingReenroll, []string{"seed budget exhausted; awaiting re-enrollment"}
	}
	if slo.MinSeedBudget > 0 && d.seedsRemaining >= 0 && d.seedsRemaining <= slo.MinSeedBudget {
		degraded = append(degraded, fmt.Sprintf("seed budget low: %d <= watermark %d",
			d.seedsRemaining, slo.MinSeedBudget))
	}
	if slo.MaxTransportRate > 0 && transportRate >= slo.MaxTransportRate {
		degraded = append(degraded, fmt.Sprintf("transport rate %.2f >= slo %.2f", transportRate, slo.MaxTransportRate))
	}
	if slo.MaxRetryRate > 0 && retryRate >= slo.MaxRetryRate {
		degraded = append(degraded, fmt.Sprintf("retry rate %.2f >= slo %.2f", retryRate, slo.MaxRetryRate))
	}
	if d.quarantined {
		degraded = append(degraded, "quarantined")
	}
	if len(degraded) > 0 {
		return StatusDegraded, degraded
	}
	return StatusOK, nil
}

// snapshotDevice builds a DeviceHealth from state. Called with h.mu held.
func snapshotDevice(id string, d *deviceState, slo SLO) DeviceHealth {
	records, _, failRate, transportRate, retryRate := d.windowRates()
	status, reasons := evaluate(d, slo)
	return DeviceHealth{
		Device:          id,
		Status:          status,
		Reasons:         reasons,
		Sessions:        d.sessions,
		Accepted:        d.accepted,
		Rejected:        d.rejected,
		Transport:       d.transport,
		WindowRecords:   records,
		FailureRate:     failRate,
		TransportRate:   transportRate,
		RetryRate:       retryRate,
		RTTP50:          d.rtt.Quantile(0.50),
		RTTP95:          d.rtt.Quantile(0.95),
		RTTP99:          d.rtt.Quantile(0.99),
		FNREstimate:     d.fnrEst,
		SeedsClaimed:    d.seedsClaimed,
		SeedsRemaining:  d.seedsRemaining,
		BudgetExhausted: d.budgetExhausted,
		Quarantined:     d.quarantined,
		QuarantineCount: d.quarantineCount,
		Transitions:     d.transitions.appendTo(nil),
		LastSeen:        d.lastSeen,
	}
}

// Get returns the health snapshot for one device (ok=false when the
// device was never observed).
func (h *HealthRegistry) Get(device string) (DeviceHealth, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.devices[device]
	if !ok {
		return DeviceHealth{}, false
	}
	return snapshotDevice(device, d, h.slo), true
}

// Status returns the device's current status (StatusOK for unknown
// devices — no data is not an alarm).
func (h *HealthRegistry) Status(device string) DeviceStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.devices[device]
	if !ok {
		return StatusOK
	}
	return d.status
}

// Snapshot returns every device's health, sorted by device id.
func (h *HealthRegistry) Snapshot() []DeviceHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]DeviceHealth, 0, len(h.devices))
	for id, d := range h.devices {
		out = append(out, snapshotDevice(id, d, h.slo))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// HealthSummary aggregates the fleet's statuses.
type HealthSummary struct {
	Devices          int `json:"devices"`
	OK               int `json:"ok"`
	Degraded         int `json:"degraded"`
	AwaitingReenroll int `json:"awaiting_reenroll"`
	Suspect          int `json:"suspect"`
}

// Status reports the fleet-wide worst status.
func (s HealthSummary) Status() DeviceStatus {
	switch {
	case s.Suspect > 0:
		return StatusSuspect
	case s.AwaitingReenroll > 0:
		return StatusAwaitingReenroll
	case s.Degraded > 0:
		return StatusDegraded
	}
	return StatusOK
}

// Summary counts devices per status.
func (h *HealthRegistry) Summary() HealthSummary {
	var sum HealthSummary
	for _, d := range h.Snapshot() {
		sum.Devices++
		switch d.Status {
		case StatusSuspect:
			sum.Suspect++
		case StatusAwaitingReenroll:
			sum.AwaitingReenroll++
		case StatusDegraded:
			sum.Degraded++
		default:
			sum.OK++
		}
	}
	return sum
}

// MarshalJSON renders the snapshot as one /devices record. RTT quantiles
// before any completed session are null; reasons and transitions are
// omitted when empty.
func (d DeviceHealth) MarshalJSON() ([]byte, error) {
	return marshal(struct {
		Device          string       `json:"device"`
		Status          string       `json:"status"`
		Reasons         []string     `json:"reasons,omitempty"`
		Sessions        uint64       `json:"sessions"`
		Accepted        uint64       `json:"accepted"`
		Rejected        uint64       `json:"rejected"`
		Transport       uint64       `json:"transport_failures"`
		WindowRecords   int          `json:"window_records"`
		FailureRate     jsonFloat    `json:"failure_rate"`
		TransportRate   jsonFloat    `json:"transport_rate"`
		RetryRate       jsonFloat    `json:"retry_rate"`
		RTTP50          jsonFloat    `json:"rtt_p50"`
		RTTP95          jsonFloat    `json:"rtt_p95"`
		RTTP99          jsonFloat    `json:"rtt_p99"`
		FNREstimate     jsonFloat    `json:"fnr_estimate"`
		SeedsClaimed    uint64       `json:"seeds_claimed"`
		SeedsRemaining  int          `json:"seeds_remaining"`
		BudgetExhausted bool         `json:"budget_exhausted"`
		Quarantined     bool         `json:"quarantined"`
		QuarantineCount uint64       `json:"quarantine_count"`
		Transitions     []Transition `json:"transitions,omitempty"`
	}{
		d.Device, d.Status.String(), d.Reasons,
		d.Sessions, d.Accepted, d.Rejected, d.Transport,
		d.WindowRecords, jsonFloat(d.FailureRate), jsonFloat(d.TransportRate), jsonFloat(d.RetryRate),
		jsonFloat(d.RTTP50), jsonFloat(d.RTTP95), jsonFloat(d.RTTP99), jsonFloat(d.FNREstimate),
		d.SeedsClaimed, d.SeedsRemaining, d.BudgetExhausted,
		d.Quarantined, d.QuarantineCount, d.Transitions,
	})
}

// MarshalJSON renders the transition as one entry of a /devices record's
// transition history.
func (tr Transition) MarshalJSON() ([]byte, error) {
	return marshal(struct {
		Seq    uint64 `json:"seq"`
		Time   int64  `json:"time_unix_ns"`
		From   string `json:"from"`
		To     string `json:"to"`
		Reason string `json:"reason"`
	}{tr.Seq, tr.Time.UnixNano(), tr.From.String(), tr.To.String(), tr.Reason})
}
