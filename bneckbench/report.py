"""Turns the bneckbench binary's raw measurements into the benchmark's metrics.

The C++ binary (src/) prints one JSON line of raw samples: set-up times,
one record per timed round, one latency per operation, and for a traced
run the per-layer values it computed from its spans.  This module holds
every rule that turns those samples into reported numbers, so the rules
can be tested on their own (test_report.py):

* the end-to-end metrics of one pass (medians over rounds);
* the tail-percentile rule: the highest percentile, at most the 90th,
  with at least ten samples beyond it, stated with its sample count;
* the failed share of the operations attempted;
* metric-name and unit validity, and the exact shape of the result line.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
WORKLOADS = ("churn_lan", "daemon_loopback", "verify_small")
TAIL_CAP = 90     # never report a percentile above p90
TAIL_BEYOND = 10  # samples that must lie beyond the reported percentile

# Per-layer metric -> (end-to-end metric it should move, workload).
# "all" marks metrics every workload reports.  The traced.*, untraced.*
# and overhead.* families are added from the end-to-end list below.
LAYER_TAGS = {
    "topo.build_s": ("setup_s", "churn_lan, daemon_loopback"),
    "net.paths_s": ("setup_s", "churn_lan, daemon_loopback"),
    "workload.plan_s": ("run_s", "churn_lan"),
    "sim.schedule_s": ("run_s", "churn_lan"),
    "sim.run_s": ("run_s, ns_per_packet", "churn_lan"),
    "sim.events": ("run_s", "churn_lan"),
    "sim.ns_per_event": ("ns_per_packet", "churn_lan"),
    "sim.pending_peak": ("ns_per_packet", "churn_lan"),
    "sim.queue_ns_per_event": ("ns_per_packet", "churn_lan"),
    "core.handler_ns_per_packet": ("ns_per_packet", "churn_lan"),
    "core.packets.Join": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.Probe": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.Response": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.Update": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.Bottleneck": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.SetBottleneck": ("packets, quiescence_ms", "churn_lan"),
    "core.packets.Leave": ("packets, quiescence_ms", "churn_lan"),
    "core.probe_cycles": ("packets, quiescence_ms", "churn_lan"),
    "core.active_links": ("ns_per_packet", "churn_lan"),
    "core.sessions_per_link.p50": ("ns_per_packet", "churn_lan"),
    "core.sessions_per_link.max": ("ns_per_packet", "churn_lan"),
    "core.ns_per_packet.half": ("ns_per_packet", "churn_lan"),
    "workload.phase1.run_s": ("run_s", "churn_lan"),
    "workload.phase2.run_s": ("run_s", "churn_lan"),
    "workload.phase3.run_s": ("run_s", "churn_lan"),
    "workload.phase4.run_s": ("run_s", "churn_lan"),
    "workload.phase5.run_s": ("run_s", "churn_lan"),
    "core.solve_s": ("none (check only)", "churn_lan"),
    "sim.shard.k2.run_s": ("none (sharded engine)", "churn_lan"),
    "sim.shard.k2.speedup": ("none (sharded engine)", "churn_lan"),
    "sim.shard.windows": ("none (sharded engine)", "churn_lan"),
    "sim.shard.cross_share": ("none (sharded engine)", "churn_lan"),
    "sim.shard.bins_identical": ("none (sharded engine)", "churn_lan"),
    "transport.client.api_ms": ("run_s, converge_ms.p50, sessions_per_s", "daemon_loopback"),
    "transport.client.status_ms": ("run_s, converge_ms.p50, sessions_per_s", "daemon_loopback"),
    "transport.client.cpu_share": ("run_s, converge_ms.p50, sessions_per_s", "daemon_loopback"),
    "transport.daemon.cpu_share": ("run_s, converge_ms.p50, sessions_per_s", "daemon_loopback"),
    "transport.datagrams_per_session": ("packets, sessions_per_s", "daemon_loopback"),
    "transport.retransmissions": ("packets, converge_ms.p50", "daemon_loopback"),
    "transport.acks_sent": ("packets, sessions_per_s", "daemon_loopback"),
    "transport.duplicates_dropped": ("packets, converge_ms.p50", "daemon_loopback"),
    "transport.daemon.frames_accepted": ("packets, sessions_per_s", "daemon_loopback"),
    "transport.daemon.frames_rejected": ("packets, converge_ms.p50", "daemon_loopback"),
    "wire.encode_ns": ("sessions_per_s", "daemon_loopback"),
    "wire.decode_ns": ("sessions_per_s", "daemon_loopback"),
    "check.gen_us_per_seed": ("setup_s", "verify_small"),
    "check.run_us_per_seed": ("run_s, converge_ms.p50", "verify_small"),
    "check.events_per_seed": ("run_s", "verify_small"),
    "check.lossy_share": ("run_s", "verify_small"),
    "check.seeds_per_s": ("run_s, sessions_per_s", "verify_small"),
    "mc.transitions": ("run_s, packets", "verify_small"),
    "mc.ns_per_transition": ("run_s, ns_per_packet", "verify_small"),
    "mc.sleep_skips": ("run_s", "verify_small"),
    "mc.visited_skips": ("run_s", "verify_small"),
    "mc.states_per_s": ("run_s", "verify_small"),
    "converge_ms.tail": ("converge_ms.p50", "all"),
    "converge_ms.tail_pct": ("converge_ms.p50", "all"),
    "converge_ms.samples": ("converge_ms.p50", "all"),
}


def median(values):
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail(values):
    """Highest percentile (nearest rank, at most p90) with at least ten
    samples beyond it.  Returns (value, percentile, sample count); the
    percentile is 0 and the value 0.0 when there are too few samples."""
    n = len(values)
    ordered = sorted(values)
    for pct in range(TAIL_CAP, 0, -1):
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n
    return 0.0, 0, n


def failed_share(attempted, failed):
    """Share of attempted operations that failed."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("attempted and failed are whole numbers")
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted


def end_to_end(p):
    """End-to-end metrics of one pass of raw samples."""
    rounds = p["rounds"]
    if not rounds or not p["setup_s"] or not p["ops_ms"]:
        raise ValueError("a pass needs set-ups, rounds and operations")
    return {
        "setup_s": median(p["setup_s"]),
        "run_s": median([r["wall_s"] for r in rounds]),
        "ns_per_packet": median([r["wall_s"] * 1e9 / r["packets"] for r in rounds]),
        "packets": median([r["packets"] for r in rounds]),
        "quiescence_ms": median([r["quiescence_ms"] for r in rounds]),
        "converge_ms.p50": median(p["ops_ms"]),
        "sessions_per_s": median([r["sessions"] / r["wall_s"] for r in rounds]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }


def per_layer(raw, e2e_names):
    """Per-layer metrics of a traced run: the binary's layer values, the
    tail of the traced pass's latencies, and each end-to-end metric of
    the untraced and traced passes with their relative difference."""
    layers = {name: 0.0 for name in LAYER_TAGS}
    for name, value in raw["layers"].items():
        if name not in LAYER_TAGS:
            raise ValueError(f"the binary reported an undeclared layer metric {name}")
        layers[name] = value
    value, pct, n = tail(raw["traced"]["ops_ms"])
    layers["converge_ms.tail"] = value
    layers["converge_ms.tail_pct"] = pct
    layers["converge_ms.samples"] = n
    untraced = end_to_end(raw["untraced"])
    traced = end_to_end(raw["traced"])
    for name in e2e_names:
        layers["untraced." + name] = untraced[name]
        layers["traced." + name] = traced[name]
        layers["overhead." + name] = traced[name] / untraced[name] - 1
    return layers


def layer_tags(e2e_names):
    """LAYER_TAGS plus the tracing-overhead family."""
    tags = dict(LAYER_TAGS)
    for name in e2e_names:
        tags["untraced." + name] = (name, "all")
        tags["traced." + name] = (name, "all")
        tags["overhead." + name] = (name + " (tracing cost)", "all")
    return tags


def check_spec(spec):
    """Validates the parts of BENCHMARK.json the reporter relies on."""
    names = set()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]):
                raise ValueError(f"invalid metric name {m['name']!r}")
            if not UNIT_RE.match(m["unit"]):
                raise ValueError(f"invalid unit {m['unit']!r} for {m['name']}")
            if m["name"] in names:
                raise ValueError(f"metric {m['name']} declared twice")
            names.add(m["name"])
    e2e = [m["name"] for m in spec["end_to_end"]]
    declared = {m["name"] for m in spec["per_layer"]}
    tagged = set(layer_tags(e2e))
    if declared != tagged:
        raise ValueError(
            "per_layer list and LAYER_TAGS differ: "
            f"{sorted(declared ^ tagged)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from the binary's")


def result_line(correct, attempted, failed, values, declared):
    """The benchmark's last stdout line.  `declared` is the list of
    metric declarations ({name, unit, ...}) the run must report, all of
    them and nothing else."""
    failed_share(attempted, failed)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise ValueError(f"metrics differ from the declared set: "
                         f"{sorted(set(values) ^ set(names))}")
    metrics = {}
    for m in declared:
        v = values[m["name"]]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            raise ValueError(f"metric {m['name']} is not a finite number: {v!r}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def check_result_line(line, declared):
    """Parses and validates a result line; returns the parsed object."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly " + ", ".join(RESULT_KEYS))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    failed_share(obj["attempted"], obj["failed"])
    want = {m["name"]: m["unit"] for m in declared}
    if set(obj["metrics"]) != set(want):
        raise ValueError("metrics differ from the declared set")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            raise ValueError(f"bad metric entry {name}: {m!r}")
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} value is not a number")
    return obj
