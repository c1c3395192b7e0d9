#!/usr/bin/env python3
"""Schema check of a bench record: BENCH_fleet.json (fleet_campaign) or
BENCH_dse.json (dse_campaign); the file name picks the check.

Usage: python3 scripts/check_bench.py RECORD.json

Both: every section carries its fields, down to each thread-sweep
point, and every determinism flag the bench records is true. Fleet: the
one-pass dictionary build beat the serial replay, and on a multi-core
machine each transport's campaign thread sweep shows a speedup: above
MIN_SPEEDUP for a fleet of at least SPEEDUP_MIN_VEHICLES, above 1 for a
smaller one. DSE: each transport's fast and slow shut-off counts add up
to a non-empty front, front digests are 64-bit hex, each hypervolume
lies in (0, 1.1^3], and the thread sweep's four points ran on 1, 2, 4
and 8 threads. Exits 1 and lists every problem found; exits 0
otherwise.
"""

import json
import os
import re
import sys

TOP_LEVEL = [
    "machine_cores", "word_bits", "lanes", "dict_build_serial_s",
    "dict_build_one_pass_s", "dict_speedup_vs_serial", "transports",
    "scale_sweep", "sched_campaign", "noisy_campaign", "gateway_soak",
]
TRANSPORTS = ["classic-can", "can-fd", "flexray"]
SWEEP_POINT = ["threads", "seconds", "vehicles_per_s", "speedup_vs_1_thread"]
STAGES = [
    "simulate_s", "merge_s", "diagnose_s", "fold_s", "dict_build_s",
    "diagnose_lookup_s",
]
SOAK_POINT = [
    "vehicles", "arrivals_per_s", "snapshots", "mid_snapshot_s_total", "snapshot_s",
    "uploads_ingested", "shed", "duplicates", "truncated_uploads", "peak_rss_kb",
    "snapshot_bit_identical",
]
ROBUSTNESS = [
    "retransmitted_frames", "retransmit_overhead_s", "impaired_uploads",
    "cap_truncated_uploads", "rejected_uploads", "rank_degraded",
    "delocalized", "rank_cdf",
]
# The multi-core thread-sweep speedup gate: a fleet this large amortizes
# thread spawns, so its best sweep point must beat the serial baseline by
# MIN_SPEEDUP. Deliberately lax: the gate catches "parallelism broke
# entirely", not scheduler noise.
MIN_SPEEDUP = 1.05
SPEEDUP_MIN_VEHICLES = 50_000
# Flags the bench asserts before it writes; a false one means the record
# was edited or produced by a broken bench.
TRUE_FLAGS = {"bit_identical_across_sweep", "clean_equals_zero_rate_noisy", "accounted"}

DSE_TOP_LEVEL = [
    "machine_cores", "evaluations", "seed", "baseline_cost", "transports", "thread_sweep",
]
DSE_TRANSPORT = [
    "transport", "threads", "duration_s", "evals_per_s", "infeasible", "front_size", "fast_shutoff",
    "slow_shutoff", "headline", "hypervolume", "front_digest", "peak_rss_kb", "rss_start_kb",
    "convergence",
]
DSE_HEADLINE = ["budget_pct", "best_quality_pct", "extra_cost_pct"]
DSE_SWEEP_POINT = ["threads", "seconds", "evals_per_s", "speedup_vs_1_thread"]
DSE_SWEEP_THREADS = [1, 2, 4, 8]
HV_MAX = 1.1 ** 3  # the normalised hypervolume's reference is 1.1 on each axis


def helpers(problems):
    """The check, fields, entries and flags helpers, reporting into problems."""

    def check(cond, msg):
        if not cond:
            problems.append(msg)

    def fields(obj, names, where):
        if not isinstance(obj, dict):
            problems.append(f"{where}: expected an object")
            return False
        missing = [n for n in names if n not in obj]
        check(not missing, f"{where}: missing {', '.join(missing)}")
        return not missing

    def entries(obj, key, where):
        items = obj.get(key) if isinstance(obj, dict) else None
        check(isinstance(items, list) and items, f"{where}: {key!r} is not a non-empty list")
        return items if isinstance(items, list) else []

    def flags(value, where):
        if isinstance(value, dict):
            for k, v in value.items():
                if k in TRUE_FLAGS:
                    check(v is True, f"{where}.{k} is {json.dumps(v)}, expected true")
                flags(v, f"{where}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                flags(v, f"{where}[{i}]")

    return check, fields, entries, flags


def check_record(doc):
    problems = []
    check, fields, entries, flags = helpers(problems)

    if not isinstance(doc, dict):
        return ["record: expected an object"]
    fields(doc, TOP_LEVEL, "record")
    flags(doc, "record")

    cores = doc.get("machine_cores", 1)
    speedup = doc.get("dict_speedup_vs_serial")
    check(isinstance(speedup, (int, float)) and speedup > 1,
          f"dict_speedup_vs_serial = {speedup!r}: one-pass dictionary build "
          "not faster than the serial replay")

    seen = []
    for i, entry in enumerate(entries(doc, "transports", "record")):
        where = f"transports[{i}]"
        if not fields(entry, ["transport", "bit_identical_across_sweep", "campaign", "sweep"], where):
            continue
        seen.append(entry["transport"])
        campaign = entry["campaign"]
        fields(campaign, ["vehicles", "detected", "latency_p50_s", "latency_p99_s"], f"{where}.campaign")
        sweep = entries(entry, "sweep", where)
        for j, point in enumerate(sweep):
            fields(point, SWEEP_POINT, f"{where}.sweep[{j}]")
        best = max((p.get("speedup_vs_1_thread", 0) for p in sweep), default=0)
        vehicles = campaign.get("vehicles", 0) if isinstance(campaign, dict) else 0
        floor = MIN_SPEEDUP if vehicles >= SPEEDUP_MIN_VEHICLES else 1
        print(f"{entry['transport']}: machine_cores={cores} vehicles={vehicles} "
              f"best thread-sweep speedup={best:.3f} (needs > {floor} on multi-core)")
        check(cores <= 1 or best > floor,
              f"{where}: thread-sweep speedup {best:.3f} not above {floor} "
              f"on a {cores}-core machine with {vehicles} vehicles")
    check(sorted(seen) == sorted(TRANSPORTS), f"transports: found {seen}, expected {TRANSPORTS}")

    for i, entry in enumerate(entries(doc, "scale_sweep", "record")):
        where = f"scale_sweep[{i}]"
        if fields(entry, ["vehicles", "transport", "threads", "seconds", "peak_rss_kb", "detected", "stages"], where):
            fields(entry["stages"], STAGES, f"{where}.stages")

    sched = doc.get("sched_campaign")
    if fields(sched, ["latency_p50_ratio_sched_vs_flat", "variants"], "sched_campaign"):
        windows = []
        for i, variant in enumerate(entries(sched, "variants", "sched_campaign")):
            where = f"sched_campaign.variants[{i}]"
            if not fields(variant, ["windows", "bit_identical_across_sweep", "campaign", "per_family", "sweep"], where):
                continue
            windows.append(variant["windows"])
            families = [f.get("family") for f in variant["per_family"]]
            check(sorted(families) == ["logic", "sram"], f"{where}.per_family: families {families}")
            for j, point in enumerate(entries(variant, "sweep", where)):
                fields(point, SWEEP_POINT, f"{where}.sweep[{j}]")
        check(sorted(windows) == ["flat", "schedule"], f"sched_campaign: variants {windows}")

    noisy = doc.get("noisy_campaign")
    if fields(noisy, ["clean_digest", "clean_equals_zero_rate_noisy", "points"], "noisy_campaign"):
        for i, point in enumerate(entries(noisy, "points", "noisy_campaign")):
            where = f"noisy_campaign.points[{i}]"
            if fields(point, ["frame_error_rate", "truncation_cap_bytes", "bit_identical_across_sweep", "robustness"], where):
                fields(point["robustness"], ROBUSTNESS, f"{where}.robustness")

    soak = doc.get("gateway_soak")
    if fields(soak, ["shed_probe", "sweep"], "gateway_soak"):
        fields(soak["shed_probe"], ["queue_capacity", "offered", "ingested", "shed", "accounted"],
               "gateway_soak.shed_probe")
        sweep = entries(soak, "sweep", "gateway_soak")
        for j, point in enumerate(sweep):
            fields(point, SOAK_POINT, f"gateway_soak.sweep[{j}]")
        # The replay under other service settings runs at the smallest
        # scale only; larger scales record null.
        smallest = min(range(len(sweep)), key=lambda j: sweep[j].get("vehicles", 0), default=None)
        for j, point in enumerate(sweep):
            expected = True if j == smallest else None
            got = point.get("snapshot_bit_identical")
            check(got is expected,
                  f"gateway_soak.sweep[{j}].snapshot_bit_identical is {json.dumps(got)}, "
                  f"expected {json.dumps(expected)}")

    return problems


def check_dse_record(doc):
    problems = []
    check, fields, entries, flags = helpers(problems)

    if not isinstance(doc, dict):
        return ["record: expected an object"]
    fields(doc, DSE_TOP_LEVEL, "record")
    flags(doc, "record")

    for i, entry in enumerate(entries(doc, "transports", "record")):
        where = f"transports[{i}]"
        if not fields(entry, DSE_TRANSPORT, where):
            continue
        size, fast, slow = entry["front_size"], entry["fast_shutoff"], entry["slow_shutoff"]
        check(isinstance(size, int) and size > 0 and fast + slow == size,
              f"{where}: fast_shutoff {fast} + slow_shutoff {slow} != front_size {size} > 0")
        digest = entry["front_digest"]
        check(isinstance(digest, str) and re.fullmatch(r"0x[0-9A-F]{16}", digest),
              f"{where}.front_digest = {digest!r}: expected 0x and 16 upper-case hex digits")
        hv = entry["hypervolume"]
        check(isinstance(hv, (int, float)) and 0 < hv <= HV_MAX,
              f"{where}.hypervolume = {hv!r}: outside (0, {HV_MAX:.3f}]")
        for j, budget in enumerate(entries(entry, "headline", where)):
            fields(budget, DSE_HEADLINE, f"{where}.headline[{j}]")
        entries(entry, "convergence", where)

    sweep = doc.get("thread_sweep")
    if fields(sweep, ["bit_identical_across_sweep", "evaluations", "sweep"], "thread_sweep"):
        points = entries(sweep, "sweep", "thread_sweep")
        for j, point in enumerate(points):
            fields(point, DSE_SWEEP_POINT, f"thread_sweep.sweep[{j}]")
        # A run under EEA_THREADS records the pinned count at every point.
        threads = [p.get("threads") for p in points if isinstance(p, dict)]
        check(threads == DSE_SWEEP_THREADS,
              f"thread_sweep.sweep: threads {threads}, expected {DSE_SWEEP_THREADS}")

    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    path = argv[1]
    name = os.path.basename(path)
    if "fleet" in name:
        checker, what = check_record, "fleet"
    elif "dse" in name:
        checker, what = check_dse_record, "DSE"
    else:
        print(f"{path}: the file name names neither a fleet nor a DSE record")
        return 2
    with open(path) as f:
        doc = json.load(f)
    problems = checker(doc)
    if problems:
        print(f"{path}: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"{path}: every {what} section present and consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
