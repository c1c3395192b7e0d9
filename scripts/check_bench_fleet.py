#!/usr/bin/env python3
"""Schema check of the BENCH_fleet.json record the fleet_campaign bench writes.

Usage: python3 scripts/check_bench_fleet.py [BENCH_fleet.json]

Checks that every section is present and carries its fields, that every
determinism flag the bench records is true, that the one-pass dictionary
build beat the serial replay, and that on a multi-core machine each
transport's campaign thread sweep shows a speedup. Exits 1 and lists every
problem found; exits 0 otherwise.
"""

import json
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
    "vehicles", "arrivals_per_s", "snapshots", "snapshot_s", "shed",
    "duplicates", "truncated_uploads", "peak_rss_kb", "snapshot_bit_identical",
]
ROBUSTNESS = [
    "retransmitted_frames", "retransmit_overhead_s", "impaired_uploads",
    "cap_truncated_uploads", "rejected_uploads", "rank_degraded",
    "delocalized", "rank_cdf",
]
# Flags the bench asserts before it writes; a false one means the record
# was edited or produced by a broken bench.
TRUE_FLAGS = {"bit_identical_across_sweep", "clean_equals_zero_rate_noisy", "accounted"}


def check_record(doc):
    problems = []

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
        fields(entry["campaign"], ["detected", "latency_p50_s", "latency_p99_s"], f"{where}.campaign")
        sweep = entries(entry, "sweep", where)
        for j, point in enumerate(sweep):
            fields(point, SWEEP_POINT, f"{where}.sweep[{j}]")
        best = max((p.get("speedup_vs_1_thread", 0) for p in sweep), default=0)
        print(f"{entry['transport']}: machine_cores={cores} best thread-sweep speedup={best:.3f}")
        check(cores <= 1 or best > 1,
              f"{where}: no thread-sweep speedup on a {cores}-core machine (best {best:.3f})")
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


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_fleet.json"
    with open(path) as f:
        doc = json.load(f)
    problems = check_record(doc)
    if problems:
        print(f"{path}: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"{path}: every fleet section present and consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
