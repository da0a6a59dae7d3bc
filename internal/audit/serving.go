package audit

import (
	"fmt"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/trace"
)

// ServingEvidence bundles one remote (possibly sharded) run with the
// serving-side counters needed to verify the paper's run rules across a
// network boundary. The replica snapshots must be deltas covering exactly the
// audited run (a fresh deployment per audited run is the simple way to get
// them), and the client counters must come from the Remote that drove it.
type ServingEvidence struct {
	// Result is the LoadGen's view of the run.
	Result *loadgen.Result
	// Settings is the configuration the run used (latency bound, percentile).
	Settings loadgen.TestSettings
	// ClientRejected and ClientExpired are the Remote's counts of responses
	// the servers answered StatusRejected / StatusExpired.
	ClientRejected int64
	ClientExpired  int64
	// ClientTransportDrops is the Remote's count of requests settled as
	// dropped after failover was exhausted — transport loss the fleet could
	// not absorb, the only legitimate drops not explained by a server-side
	// reject or expiry.
	ClientTransportDrops int64
	// Recovery is the client's fault-tolerance record for the run (down/up
	// intervals, rejoins, redials, retries). Nil means the run claims no
	// recovery machinery was exercised; when set, CheckServing reconciles it
	// against the drop accounting and verifies every outage that ended was
	// closed by a proper re-join.
	Recovery *serve.RecoveryStats
	// Replicas holds one metrics snapshot per server replica.
	Replicas []serve.Snapshot
	// Traces holds the run's captured trace records (client and server
	// origin, merged). Nil means the run was untraced; non-nil (even empty)
	// means tracing was on and CheckServing verifies the span trees are
	// well-formed: stages non-negative, stage sums bounded by the end-to-end
	// span, and every folded server block nested inside its client span.
	Traces []trace.Record
}

// CheckServing runs the serving conformance checks: a remote or sharded run
// satisfies the run rules only if shed load is visible end to end (server
// reject/expire counters reconcile with the client's counts and the run's
// ResponsesDropped — nothing dropped silently on either side of the wire),
// drops invalidate the run, every issued query completes, and the run's
// latency-bound verdict is reproducible from the merged latency log.
func CheckServing(ev ServingEvidence) ([]Finding, error) {
	if ev.Result == nil {
		return nil, fmt.Errorf("audit: serving evidence needs a Result")
	}
	if len(ev.Replicas) == 0 {
		return nil, fmt.Errorf("audit: serving evidence needs at least one replica snapshot")
	}
	merged := serve.MergeSnapshots(ev.Replicas...)
	findings := []Finding{
		checkDropAccounting(ev, merged),
		checkDropValidity(ev.Result),
		checkCompletion(ev.Result),
	}
	if ev.Result.Scenario == loadgen.Server {
		findings = append(findings, checkLatencyBound(ev))
	}
	if ev.Result.Scenario == loadgen.Swarm {
		findings = append(findings, checkSwarm(ev))
	}
	if ev.Recovery != nil {
		findings = append(findings, checkRecovery(ev))
	}
	if ev.Traces != nil {
		findings = append(findings, checkTraces(ev.Traces))
	}
	return findings, nil
}

// checkDropAccounting reconciles shed load across the wire: every reject or
// expiry the replicas counted must have surfaced at the client, and every
// dropped response the LoadGen counted must be explained by a client-observed
// reject/expiry (an excess means transport loss, a deficit means silent
// shedding — both violations).
// A run whose recovery record shows transport activity (outages, redials or
// failover retries) cannot hold the server-side counters to strict equality:
// a crashed replica's epoch may have counted work the client never heard
// about (responses lost on a dying connection, counters lost between the
// client's last metrics fetch and the crash). The client-side identity stays
// strict regardless — every dropped response must be a client-observed
// reject, expiry or exhausted-failover transport drop.
func checkDropAccounting(ev ServingEvidence, merged serve.Snapshot) Finding {
	serverShed := int64(merged.Rejected + merged.Shed)
	serverExpired := int64(merged.Expired)
	clientDrops := ev.ClientRejected + ev.ClientExpired + ev.ClientTransportDrops
	faulty := ev.Recovery != nil &&
		(len(ev.Recovery.DownIntervals) > 0 || ev.Recovery.ConnRedials > 0 || ev.Recovery.Retries > 0)
	detail := fmt.Sprintf(
		"servers rejected %d and expired %d across %d replicas; client observed %d rejected, %d expired, %d transport-dropped; run counted %d dropped responses",
		serverShed, serverExpired, len(ev.Replicas), ev.ClientRejected, ev.ClientExpired,
		ev.ClientTransportDrops, ev.Result.ResponsesDropped)
	switch {
	case int64(ev.Result.ResponsesDropped) != clientDrops:
		return Finding{Name: "serving-drop-accounting", Pass: false,
			Detail: detail + " — dropped responses not fully explained by rejects/expiries/transport drops (silent loss or miscount)"}
	case ev.ClientTransportDrops > 0 && !faulty:
		return Finding{Name: "serving-drop-accounting", Pass: false,
			Detail: detail + " — transport drops claimed without any recorded transport faults"}
	case !faulty && serverShed != ev.ClientRejected:
		return Finding{Name: "serving-drop-accounting", Pass: false,
			Detail: detail + " — server rejects did not all surface at the client (silent shed)"}
	case !faulty && serverExpired != ev.ClientExpired:
		return Finding{Name: "serving-drop-accounting", Pass: false,
			Detail: detail + " — server expiries did not all surface at the client (silent expiry)"}
	default:
		if faulty {
			return Finding{Name: "serving-drop-accounting", Pass: true,
				Detail: detail + " — client-side identity reconciled (server counters informational: run recorded transport faults)"}
		}
		return Finding{Name: "serving-drop-accounting", Pass: true, Detail: detail + " — all reconciled"}
	}
}

// checkRecovery verifies the fault-tolerance record itself: every outage
// interval is well-formed, every outage that ended was closed by a proper
// re-join (probe handshake + reopen barrier — Rejoins must equal the closed
// intervals), and the record's transport-drop count matches the client
// counter used in the drop accounting.
func checkRecovery(ev ServingEvidence) Finding {
	rec := ev.Recovery
	closed, open := 0, 0
	for _, iv := range rec.DownIntervals {
		if iv.Start.IsZero() {
			return Finding{Name: "serving-recovery", Pass: false,
				Detail: fmt.Sprintf("replica %d outage interval has no start time", iv.Replica)}
		}
		if iv.End.IsZero() {
			open++
			continue
		}
		if iv.End.Before(iv.Start) {
			return Finding{Name: "serving-recovery", Pass: false,
				Detail: fmt.Sprintf("replica %d outage interval ends %v before it starts", iv.Replica, iv.Start.Sub(iv.End))}
		}
		closed++
	}
	detail := fmt.Sprintf(
		"%d outages (%d rejoined, %d still down), %d connection redials, %d failover retries, %d transport drops",
		len(rec.DownIntervals), closed, open, rec.ConnRedials, rec.Retries, rec.TransportDrops)
	switch {
	case rec.Rejoins != closed:
		return Finding{Name: "serving-recovery", Pass: false,
			Detail: detail + fmt.Sprintf(" — %d rejoins recorded for %d ended outages: an outage ended without the probe + reopen-barrier re-join", rec.Rejoins, closed)}
	case rec.TransportDrops != ev.ClientTransportDrops:
		return Finding{Name: "serving-recovery", Pass: false,
			Detail: detail + fmt.Sprintf(" — recovery record claims %d transport drops but the client counted %d", rec.TransportDrops, ev.ClientTransportDrops)}
	case rec.ConnRedials < int64(rec.Rejoins):
		return Finding{Name: "serving-recovery", Pass: false,
			Detail: detail + " — more replica rejoins than connection redials; a rejoin without a re-dialed connection is impossible"}
	default:
		return Finding{Name: "serving-recovery", Pass: true, Detail: detail + " — intervals well-formed, rejoins complete"}
	}
}

// checkDropValidity enforces that dropped responses invalidate the run: shed
// load may happen, but a submission must not report such a run as valid.
func checkDropValidity(r *loadgen.Result) Finding {
	if r.ResponsesDropped > 0 && r.Valid {
		return Finding{Name: "serving-drop-validity", Pass: false,
			Detail: fmt.Sprintf("run dropped %d responses yet reports valid", r.ResponsesDropped)}
	}
	return Finding{Name: "serving-drop-validity", Pass: true,
		Detail: fmt.Sprintf("%d dropped responses, run valid=%v", r.ResponsesDropped, r.Valid)}
}

// checkCompletion enforces termination semantics: every issued query and
// sample completed (possibly as dropped) — an overloaded or dying fleet must
// degrade, never hang or lose work.
func checkCompletion(r *loadgen.Result) Finding {
	if r.QueriesCompleted != r.QueriesIssued || r.SamplesCompleted != r.SamplesIssued {
		return Finding{Name: "serving-completion", Pass: false,
			Detail: fmt.Sprintf("completed %d of %d queries, %d of %d samples",
				r.QueriesCompleted, r.QueriesIssued, r.SamplesCompleted, r.SamplesIssued)}
	}
	return Finding{Name: "serving-completion", Pass: true,
		Detail: fmt.Sprintf("all %d queries (%d samples) completed", r.QueriesIssued, r.SamplesIssued)}
}

// checkLatencyBound recomputes the Server scenario's latency-bound verdict
// from the merged per-query latency log and compares it with what the run
// reported, so a submission cannot understate its violation fraction.
func checkLatencyBound(ev ServingEvidence) Finding {
	bound := ev.Settings.ServerTargetLatency
	if bound <= 0 {
		return Finding{Name: "serving-latency-bound", Pass: false,
			Detail: "no server latency bound configured"}
	}
	log := ev.Result.QueryLatencies.Sorted
	if len(log) == 0 {
		return Finding{Name: "serving-latency-bound", Pass: false,
			Detail: "result carries no latency log to recompute from"}
	}
	over := 0
	for _, d := range log {
		if d > bound {
			over++
		}
	}
	recomputed := float64(over) / float64(len(log))
	reported := ev.Result.LatencyBoundViolations
	if diff := recomputed - reported; diff > 1e-9 || diff < -1e-9 {
		return Finding{Name: "serving-latency-bound", Pass: false,
			Detail: fmt.Sprintf("recomputed violation fraction %.6f (%d of %d over %v) != reported %.6f",
				recomputed, over, len(log), bound, reported)}
	}
	allowed := 1 - ev.Settings.ServerLatencyPercentile
	violates := recomputed > allowed+1e-12
	if violates && ev.Result.Valid {
		return Finding{Name: "serving-latency-bound", Pass: false,
			Detail: fmt.Sprintf("%.3f%% of queries exceed the %v bound (allowed %.3f%%) yet the run reports valid",
				100*recomputed, bound, 100*allowed)}
	}
	return Finding{Name: "serving-latency-bound", Pass: true,
		Detail: fmt.Sprintf("%d of %d merged queries over the %v bound (%.3f%%, allowed %.3f%%), verdict consistent",
			over, len(log), bound, 100*recomputed, 100*allowed)}
}

// checkSwarm verifies a Swarm run's per-class accounting and verdicts: the
// class counters must partition the run's aggregate counters exactly (every
// query belongs to exactly one class — nothing double-counted, nothing
// unclassified), every class's latency-bound verdict must be reproducible
// from its reported violation fraction and target percentile, and a class
// over its bound must have invalidated the run. The session population must
// match the configured one, and churn may only occur when a session lifetime
// is configured.
func checkSwarm(ev ServingEvidence) Finding {
	fail := func(format string, args ...interface{}) Finding {
		return Finding{Name: "serving-swarm", Pass: false,
			Detail: fmt.Sprintf(format, args...)}
	}
	res := ev.Result
	if len(res.SwarmClasses) == 0 {
		return fail("swarm run reports no traffic classes")
	}
	if res.SwarmSessions != ev.Settings.SwarmSessions {
		return fail("result reports %d sessions, settings configured %d",
			res.SwarmSessions, ev.Settings.SwarmSessions)
	}
	if res.SwarmChurns < 0 {
		return fail("negative churn count %d", res.SwarmChurns)
	}
	if res.SwarmChurns > 0 && ev.Settings.SwarmSessionLifetime <= 0 {
		return fail("%d churn events with churn disabled (no session lifetime)", res.SwarmChurns)
	}
	var issued, completed, dropped int
	for i, c := range res.SwarmClasses {
		if c.QueriesIssued < 0 || c.QueriesCompleted < 0 || c.ResponsesDropped < 0 {
			return fail("class %d (%q) has negative counters", i, c.Name)
		}
		if c.QueriesCompleted > c.QueriesIssued {
			return fail("class %d (%q) completed %d of %d issued queries",
				i, c.Name, c.QueriesCompleted, c.QueriesIssued)
		}
		if c.TargetLatency <= 0 || c.TargetPercentile <= 0 || c.TargetPercentile >= 1 {
			return fail("class %d (%q) carries no valid latency target", i, c.Name)
		}
		allowed := 1 - c.TargetPercentile
		violates := c.BoundViolations > allowed+1e-12
		if violates == c.Valid {
			return fail("class %q: %.3f%% violations against an allowed %.3f%% contradicts its Valid=%v verdict",
				c.Name, 100*c.BoundViolations, 100*allowed, c.Valid)
		}
		if violates && res.Valid {
			return fail("class %q exceeds its %v bound yet the run reports valid", c.Name, c.TargetLatency)
		}
		issued += c.QueriesIssued
		completed += c.QueriesCompleted
		dropped += c.ResponsesDropped
	}
	if issued != res.QueriesIssued {
		return fail("class issued counts sum to %d, run issued %d", issued, res.QueriesIssued)
	}
	if completed != res.QueriesCompleted {
		return fail("class completed counts sum to %d, run completed %d", completed, res.QueriesCompleted)
	}
	if dropped != res.ResponsesDropped {
		return fail("class dropped counts sum to %d, run dropped %d", dropped, res.ResponsesDropped)
	}
	return Finding{Name: "serving-swarm", Pass: true,
		Detail: fmt.Sprintf("%d sessions, %d churns, %d classes partition %d queries, per-class verdicts consistent",
			res.SwarmSessions, res.SwarmChurns, len(res.SwarmClasses), issued)}
}
