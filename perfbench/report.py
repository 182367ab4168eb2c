"""Turns perfbench_driver's raw measurements into the benchmark report.

Pure functions only, so perfbench/tests can check them without a build:
the percentile rule, the open-loop accounting, the end-to-end and
per-layer metric tables, and the schema of the result line.
"""

import math
import statistics

# The percentiles a tail may be reported at, highest first. p99 is the
# highest the benchmark names; the rule picks the highest one that still
# has at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

# Answered p99 limit and backlog limit that define serve capacity.
CAPACITY_P99_US = 1000.0
CAPACITY_DRAIN_MS = 10.0

# serve.ok_share and ads.answered_per_user are one signal on each
# workload, not two: a register-cold Fig. 6 user stops at its first
# refusal, so ok_share = apu / (apu + 1); a serve-steady user has all 3
# steps decided, so apu = 3 * ok_share (README.md, "End-to-end metrics").
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("serve.ok_share", "ratio", "higher", 0.1),
    ("ads.answered_per_user", "count", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("threads_peak", "count", "lower", 0.1),
]

# End-to-end figures that could not be held steady on a shared virtual
# machine (README.md, "Moved from end-to-end to per-layer"). They head the
# per-layer list and are read from the untraced run of a traced
# invocation.
MOVED = [
    ("register.queries_per_s", "1/s", "higher"),
    ("register.p50_ms", "ms", "lower"),
    ("register.p99_ms", "ms", "lower"),
    ("downgrade.p50_us", "us", "lower"),
    ("downgrade.p99_us", "us", "lower"),
    ("restart.salvage_s", "s", "lower"),
    ("serve.capacity_rps", "1/s", "higher"),
    ("loadgen.late_p99_us", "us", "lower"),
]

PER_LAYER = MOVED + [
    ("expr.parse_us", "us", "lower"),
    ("analysis.lint_us", "us", "lower"),
    ("analysis.static_rejects", "count", "higher"),
    ("compile.tape_us", "us", "lower"),
    ("synth.interval_ms", "ms", "lower"),
    ("synth.powerset_ms", "ms", "lower"),
    ("synth.attempts_ratio", "ratio", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.ns_per_node", "ns", "lower"),
    ("verify.ms", "ms", "lower"),
    ("verify.nodes", "count", "lower"),
    ("cache.canonicalize_us", "us", "lower"),
    ("cache.lookup_us", "us", "lower"),
    ("cache.store_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("core.session_unattributed_ms", "ms", "lower"),
    ("core.session_solver_nodes", "count", "lower"),
    ("domains.approx_us", "us", "lower"),
    ("domains.knowledge_boxes", "count", "lower"),
    ("core.downgrade_us", "us", "lower"),
    ("core.tracked_secrets", "count", "lower"),
    ("core.kb_serialize_us", "us", "lower"),
    ("core.kb_write_ms", "ms", "lower"),
    ("core.kb_recover_ms", "ms", "lower"),
    ("service.submit_us", "us", "lower"),
    ("service.response_us", "us", "lower"),
    ("service.wait_us", "us", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.shed_ratio", "ratio", "lower"),
    ("service.register_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Counters that must repeat exactly for a given seed: serial replays and
# seeded decisions. The default-parallel facade's node count may not.
EXACT_COUNTERS = ("solver.nodes", "verify.nodes", "analysis.static_rejects")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest percentile in TAIL_PERCENTILES with at least
    TAIL_BEYOND of n samples strictly above its nearest rank; None when
    even the median has fewer."""
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return p
    return None


def tail(values):
    """(percentile, value) of the tail by the rule above. With too few
    samples for any tail the maximum is returned at percentile 100."""
    p = tail_percentile(len(values))
    if p is None:
        return 100, max(values)
    return p, percentile(values, p)


def open_loop_latency(scheduled, sent, done):
    """Per-request open-loop accounting, all times on one clock.

    Latency runs from the scheduled send time, not the actual one, so a
    stalled generator charges its delay to every request it postponed;
    lateness is how far the actual send trailed the schedule."""
    latency = [d - s for s, d in zip(scheduled, done)]
    lateness = [max(0.0, t - s) for s, t in zip(scheduled, sent)]
    return latency, lateness


def derive_open_loop(raw):
    """Fills the open-loop samples of a serve run from its per-phase send
    records: answered latency and generator lateness per ladder step
    (ladderN.lat_us, ladderN.late_us), pooled over all steps
    (downgrade_us, loadgen.late_us), and each step's sent/answered
    counts. Runs without phase records are left as they are."""
    s = raw["samples"]
    phase = 0
    while "phase%d.sched_us" % phase in s:
        pre = "phase%d." % phase
        lat, late = open_loop_latency(s[pre + "sched_us"], s[pre + "sent_us"],
                                      s[pre + "done_us"])
        answered = [x for x, a in zip(lat, s[pre + "answered"]) if a]
        s["ladder%d.lat_us" % phase] = answered
        s["ladder%d.late_us" % phase] = late
        s.setdefault("downgrade_us", []).extend(answered)
        s.setdefault("loadgen.late_us", []).extend(late)
        if phase < len(raw.get("ladder", [])):
            raw["ladder"][phase]["sent"] = len(late)
            raw["ladder"][phase]["answered"] = len(answered)
        phase += 1
    return raw


def capacity_misses(lat, late, drain_ms):
    """The capacity limits one ladder step misses, by name: "answered" (no
    answered downgrade), "tail" (answered tail above CAPACITY_P99_US),
    "backlog" (drain above CAPACITY_DRAIN_MS), "late" (generator tail above
    CAPACITY_P99_US). Empty when the step qualifies."""
    if not lat:
        return ["answered"]
    misses = []
    if tail(lat)[1] > CAPACITY_P99_US:
        misses.append("tail")
    if drain_ms > CAPACITY_DRAIN_MS:
        misses.append("backlog")
    if late and tail(late)[1] > CAPACITY_P99_US:
        misses.append("late")
    return misses


def capacity(ladder, lat_by_step, late_by_step):
    """Highest offered rate that misses no capacity limit; 0 when no rate
    qualifies. When the top rate qualifies the figure is only a lower
    bound (see capacity_status)."""
    best = 0.0
    for step, row in enumerate(ladder):
        if not capacity_misses(lat_by_step[step], late_by_step[step],
                               row.get("drain_ms", 0.0)):
            best = max(best, row["rate"])
    return best


def capacity_status(rows):
    """How to read serve.capacity_rps from the ladder rows: "no ladder";
    "capped" when the top rate qualifies, so the daemon's capacity is at
    least that rate and the figure is a lower bound; "none" when no rate
    qualifies, so the figure reads 0; "measured" otherwise."""
    if not rows:
        return "no ladder"
    if not rows[-1]["misses"]:
        return "capped"
    if all(r["misses"] for r in rows):
        return "none"
    return "measured"


def _span_median(raw, name, scale=1.0):
    span = raw["spans"].get(name)
    return span["median_us"] / scale if span else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def chunk_throughput(latency_ms, queries, chunk):
    """Median, over consecutive chunks of \\p chunk registrations, of the
    queries registered per second of registration time. A chunk is one
    fixed mix (a round of modules, or one set-up's tenants), so every
    chunk weighs the same work; the median keeps one stalled chunk from
    moving the figure the way a run-wide mean would."""
    rates = []
    for i in range(0, len(latency_ms) - chunk + 1, chunk):
        seconds = sum(latency_ms[i:i + chunk]) / 1e3
        rates.append(sum(queries[i:i + chunk]) / seconds)
    return statistics.median(rates) if rates else 0.0


def headline(raw):
    """Every user-facing figure of one untraced run — the bounded
    end-to-end metrics and those moved to the per-layer list (MOVED) —
    plus the details the report prints beside them."""
    s = raw["samples"]
    v = raw["values"]
    c = raw["counters"]
    reg = s.get("register_ms", [])
    dg = s.get("downgrade_us", [])
    late = s.get("loadgen.late_us", [])
    steps = len(raw.get("ladder", []))
    decided = (c.get("downgrade.answered", 0) + c.get("downgrade.refused", 0)
               + c.get("downgrade.bottom", 0))
    reg_tail = tail(reg) if reg else (None, 0.0)
    dg_tail = tail(dg) if dg else (None, 0.0)
    metrics = {
        "setup_s": _median(s.get("setup_s", [])),
        "serve.ok_share": (c.get("downgrade.answered", 0) / decided
                           if decided else 0.0),
        "ads.answered_per_user": (statistics.fmean(s["answered_per_user"])
                                  if s.get("answered_per_user") else 0.0),
        "peak_rss_mb": v.get("peak_rss_mb", 0.0),
        "threads_peak": v.get("threads_peak", 0.0),
        "register.queries_per_s": chunk_throughput(
            reg, s.get("register_queries", []),
            int(v.get("register_chunk", 1))),
        "register.p50_ms": percentile(reg, 50) if reg else 0.0,
        "register.p99_ms": reg_tail[1],
        "downgrade.p50_us": percentile(dg, 50) if dg else 0.0,
        "downgrade.p99_us": dg_tail[1],
        "restart.salvage_s": _median(s.get("salvage_s", [])),
        "serve.capacity_rps": capacity(
            raw.get("ladder", []),
            [s.get("ladder%d.lat_us" % i, []) for i in range(steps)],
            [s.get("ladder%d.late_us" % i, []) for i in range(steps)]),
        "loadgen.late_p99_us": tail(late)[1] if late else 0.0,
    }
    details = {
        "register.samples": len(reg),
        "register.tail_percentile": reg_tail[0],
        "downgrade.samples": len(dg),
        "downgrade.tail_percentile": dg_tail[0],
        "downgrade.decided": decided,
        "users": len(s.get("answered_per_user", [])),
        "restarts": len(s.get("salvage_s", [])),
        "capacity_status": capacity_status(ladder_rows(raw)),
        "failed_share": (raw["failed"] / raw["attempted"]
                         if raw["attempted"] else 0.0),
    }
    return metrics, details


def ladder_rows(raw):
    """Per-rate rows of the serve-steady ladder, each with the capacity
    limits it misses."""
    rows = []
    for step, row in enumerate(raw.get("ladder", [])):
        lat = raw["samples"].get("ladder%d.lat_us" % step, [])
        late = raw["samples"].get("ladder%d.late_us" % step, [])
        p, t = tail(lat) if lat else (None, 0.0)
        rows.append({
            "rate": row["rate"], "sent": row["sent"],
            "answered": row["answered"],
            "p50_us": percentile(lat, 50) if lat else 0.0,
            "tail_percentile": p, "tail_us": t,
            "late_tail_us": tail(late)[1] if late else 0.0,
            "drain_ms": row.get("drain_ms", 0.0),
            "misses": capacity_misses(lat, late, row.get("drain_ms", 0.0)),
        })
    return rows


def per_layer(raw, untraced=None):
    """The per-layer metrics of one traced run. \\p untraced is the
    untraced run of the same workload and seed: the MOVED figures come
    from it, and it is the base of the overhead ratio."""
    s = raw["samples"]
    v = raw["values"]
    c = raw["counters"]
    plain, _ = headline(untraced if untraced is not None else raw)
    hits = c.get("cache.replay_hits", 0)
    misses = c.get("cache.replay_misses", 0)
    accepted = c.get("service.accepted", 0)
    metrics = {name: plain[name] for name, *_ in MOVED}
    metrics.update({
        "expr.parse_us": _span_median(raw, "expr.parse"),
        "analysis.lint_us": _span_median(raw, "analysis.lint"),
        "analysis.static_rejects": c.get("analysis.static_rejects", 0),
        "compile.tape_us": _span_median(raw, "compile.tape"),
        "synth.interval_ms": _span_median(raw, "synth.interval", 1e3),
        "synth.powerset_ms": _span_median(raw, "synth.powerset", 1e3),
        "synth.attempts_ratio": (c["synth.attempts"] / c["synth.queries"]
                                 if c.get("synth.queries") else 0.0),
        "solver.nodes": c.get("solver.nodes", 0),
        "solver.ns_per_node": _median(s.get("solver.ns_per_node", [])),
        "verify.ms": _span_median(raw, "verify", 1e3),
        "verify.nodes": c.get("verify.nodes", 0),
        "cache.canonicalize_us": _span_median(raw, "cache.canonicalize"),
        "cache.lookup_us": _span_median(raw, "cache.lookup"),
        "cache.store_us": _span_median(raw, "cache.store"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.session_unattributed_ms": _median(
            s.get("core.session_unattributed_ms", [])),
        "core.session_solver_nodes": sum(
            s.get("core.session_solver_nodes.first_round", [])),
        "domains.approx_us": _span_median(raw, "domains.approx"),
        "domains.knowledge_boxes": (statistics.fmean(
            s["domains.knowledge_boxes"]) if s.get(
                "domains.knowledge_boxes") else 0.0),
        "core.downgrade_us": _span_median(raw, "core.downgrade"),
        "core.tracked_secrets": v.get("core.tracked_secrets", 0.0),
        "core.kb_serialize_us": _span_median(raw, "core.kb_serialize"),
        "core.kb_write_ms": _span_median(raw, "core.kb_write", 1e3),
        "core.kb_recover_ms": _span_median(raw, "core.kb_recover", 1e3),
        "service.submit_us": _span_median(raw, "service.submit"),
        "service.response_us": _median(s.get("service.response_us", [])),
        "service.wait_us": _median(s.get("service.wait_us", [])),
        "service.queue_depth_max": v.get("service.queue_depth_max", 0.0),
        "service.shed_ratio": (c.get("service.shed", 0) / accepted
                               if accepted else 0.0),
        "service.register_ms": (_median(s.get("register_ms", []))
                                if accepted else 0.0),
        "trace.overhead_ratio": 0.0,
    })
    if untraced is not None:
        metrics["trace.overhead_ratio"] = overhead_ratio(raw, untraced)
    return metrics


def overhead_ratio(traced, untraced):
    """Median primary latency with benchmark spans on over the same
    without: registrations where the workload registers in its measured
    window, answered downgrades otherwise."""
    key = ("register_ms" if traced["workload"] == "register-cold"
           else "downgrade_us")
    a = traced["samples"].get(key, [])
    b = untraced["samples"].get(key, [])
    if not a or not b:
        return 0.0
    return percentile(a, 50) / percentile(b, 50)


def result_line(raw, metrics, table):
    """The last line of the benchmark's output: exactly the keys correct,
    attempted, failed and metrics, one entry per metric of \\p table."""
    return {
        "correct": raw["failed"] == 0,
        "attempted": int(max(1, raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit, *_ in table},
    }


def check_result_line(line, table):
    """Raises ValueError unless \\p line is a well-formed result line for
    the metrics of \\p table."""
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(line))
    if not isinstance(line["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool):
            raise ValueError("%s must be a whole number" % key)
    if line["attempted"] < 1 or line["failed"] < 0:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    names = [row[0] for row in table]
    if sorted(line["metrics"]) != sorted(names):
        raise ValueError("metric names: %s" % sorted(line["metrics"]))
    for name, unit, *_ in table:
        m = line["metrics"][name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError("metric %s: %s" % (name, m))
        if not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            raise ValueError("metric %s is not a finite number" % name)
