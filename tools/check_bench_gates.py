#!/usr/bin/env python3
"""CI gates over the BENCH_serving.json snapshot of bench_serving_throughput.

Usage: tools/check_bench_gates.py [path/to/BENCH_serving.json [gate ...]]

Runs every gate below (or only the named ones) and exits 1 if any fails.
Each gate stops at its first violated invariant, printing an "error: ..."
line to stderr; passing gates end with an "OK" line. Numbers are echoed
exactly as the snapshot spells them.

overhead   Stage-tracing overhead: the "tracing_overhead" section compares
           the single-query serve p50 with stage tracing on vs off in the
           same process (min-of-2 per arm, arms alternated). The budget is
           < OVERHEAD_BUDGET_PCT (default 2.0) percent; negative values
           (noise in favor of tracing-on) pass. Multi-core scaling sanity
           from the "multi_core" section: with >= 4 hardware threads, the
           8-client / 8-store micro-batch QPS at 4 shards must be at least
           SCALING_MIN_X (default 2.0) times the 1-shard QPS (the ratio is
           rounded to 2 decimals first). Below 4 hardware threads the
           scaling check is skipped: the shards just time-slice one core
           and the ratio is meaningless.

resident   Paged catalog: the "paged_catalog" section serves a catalog of
           cold sketches at 25% / 50% / 100% resident-byte budgets. Fails
           if the catalog holds fewer than MIN_SKETCHES (default 256)
           sketches, if the fully-resident baseline or any budget row
           served answers that differ from the fully-resident reference,
           if any row's peak residency exceeded its budget, or if fewer
           than 3 budget rows ran.

streaming  Streaming freshness: the "streaming" section serves a drifting
           dataset under live appends with refresh off and on. Fails if
           either mode's answers broke the delta-composition contract, if
           fewer than 2 modes ran, if the refresh never swapped a new
           version in (the arm is then vacuous), if it retrained every
           leaf (full_rebuild; the controller exists to retrain only
           flagged leaves), if the stale sketch's drift-probe MAE never
           crossed the policy bound, or if the post-refresh MAE is not
           back within it. The "compaction" section's sustained-append
           arm must, in both modes, have compacted at least once, trimmed
           rows out of the delta, kept the resident delta bounded by the
           fold threshold, and served every mid-run sampled answer
           bit-identical to a from-scratch scan.
"""

import json
import os
import sys
from decimal import Decimal


class GateError(Exception):
    """An invariant the snapshot violates; the message is the error line."""


def fmt(value):
    """Render a parsed JSON value the way the snapshot spells it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def section(doc, name, error):
    value = doc.get(name)
    if not isinstance(value, dict):
        raise GateError(error)
    return value


def rows_of(sec):
    rows = sec.get("rows")
    return [r for r in rows if isinstance(r, dict)] if isinstance(rows, list) else []


def check_overhead(doc, path):
    budget_pct = os.environ.get("OVERHEAD_BUDGET_PCT", "2.0")
    scaling_min_x = os.environ.get("SCALING_MIN_X", "2.0")

    tracing = section(doc, "tracing_overhead",
                      f"no tracing_overhead section in {path}")
    overhead = tracing.get("overhead_pct")
    if overhead is None:
        raise GateError(f"no overhead_pct in the tracing_overhead section of {path}")
    print(f"tracing overhead: on {fmt(tracing.get('single_query_p50_on_us'))}us"
          f" vs off {fmt(tracing.get('single_query_p50_off_us'))}us ="
          f" {fmt(overhead)}% (budget {budget_pct}%)")
    if not overhead < float(budget_pct):
        raise GateError(f"stage-tracing overhead {fmt(overhead)}% exceeds"
                        f" {budget_pct}%")

    hw = doc.get("hardware_threads")
    if hw is None:
        raise GateError(f"no hardware_threads field in {path}")
    if hw < 4:
        print(f"scaling check: skipped ({hw} hardware thread(s) < 4)")
    else:
        qps = {r.get("shards"): r.get("qps")
               for r in rows_of(doc.get("multi_core") or {})}
        qps1, qps4 = qps.get(1), qps.get(4)
        if qps1 is None or qps4 is None:
            raise GateError(f"no multi_core shard rows in {path}")
        speedup = f"{float(qps4) / float(qps1) if qps1 > 0 else 0:.2f}"
        print(f"scaling check: 4 shards {fmt(qps4)} qps vs 1 shard {fmt(qps1)}"
              f" qps = {speedup}x (min {scaling_min_x}x on {hw} hardware"
              " threads)")
        if not float(speedup) >= float(scaling_min_x):
            raise GateError(f"4-shard micro-batch QPS only {speedup}x the"
                            f" 1-shard QPS (need >= {scaling_min_x}x)")
    print("OK")


def check_resident(doc, path):
    min_sketches = int(os.environ.get("MIN_SKETCHES", "256"))

    catalog = section(doc, "paged_catalog", f"no paged_catalog section in {path}")
    sketches = catalog.get("sketches")
    if sketches is None:
        raise GateError(f"no paged_catalog section in {path}")
    if sketches < min_sketches:
        raise GateError(f"paged catalog holds {sketches} sketches"
                        f" (need >= {min_sketches})")
    if catalog.get("baseline_answers_match") is not True:
        raise GateError("fully-resident baseline answers mismatched")

    rows = rows_of(catalog)
    if not rows:
        raise GateError(f"no paged_catalog budget rows in {path}")
    for row in rows:
        frac = fmt(row.get("budget_fraction"))
        budget, peak = row.get("budget_bytes"), row.get("peak_resident_bytes")
        match = row.get("answers_match")
        print(f"budget {frac}: peak {fmt(peak)} of {fmt(budget)} bytes,"
              f" answers_match {fmt(match)}")
        if match is not True:
            raise GateError("answers diverged from the fully-resident reference"
                            f" at budget fraction {frac}")
        if peak is None or budget is None or not peak <= budget:
            raise GateError(f"peak residency {fmt(peak)} bytes exceeds the"
                            f" {fmt(budget)}-byte budget at fraction {frac}")
    if len(rows) < 3:
        raise GateError(f"only {len(rows)} budget row(s) ran (need >= 3)")
    print(f"OK ({sketches} sketches, {len(rows)} budget rows)")


def check_streaming(doc, path):
    stream = section(doc, "streaming", f"no streaming section in {path}")
    bound = stream.get("policy_max_normalized_mae")
    drifted = stream.get("drifted_normalized_mae")
    post = stream.get("post_refresh_normalized_mae")
    swaps = stream.get("refresh_swaps")
    retrained = fmt(stream.get("retrained_leaves"))
    total = fmt(stream.get("total_leaves"))
    if bound is None or post is None or swaps is None:
        raise GateError(f"streaming section in {path} is missing fields")
    print(f"drift bound {fmt(bound)}: stale {fmt(drifted)}, post-refresh"
          f" {fmt(post)}, {fmt(swaps)} swap(s), {retrained}/{total} leaves"
          f" retrained, lag {fmt(stream.get('refresh_lag_ms'))} ms")

    modes = rows_of(stream)
    for row in modes:
        mode, match = fmt(row.get("mode")), row.get("answers_match")
        print(f"mode {mode}: answers_match {fmt(match)}")
        if match is not True:
            raise GateError("served answers diverged from the delta-composition"
                            f" contract in mode {mode}")
    if len(modes) < 2:
        raise GateError(f"only {len(modes)} streaming mode row(s) ran (need 2)")

    if swaps < 1:
        raise GateError("refresh never swapped a new version in — the injected"
                        " drift did not exercise the controller")
    if stream.get("full_rebuild") is not False:
        raise GateError(f"refresh retrained every leaf ({retrained} over"
                        f" {fmt(swaps)} swap(s) of {total} leaves) — expected a"
                        " partial retrain")
    # The stale sketch must actually have drifted out of bound (otherwise
    # the post-refresh check proves nothing), and the refreshed one must be
    # back inside it.
    if drifted is None or not drifted > bound:
        raise GateError(f"stale-sketch MAE {fmt(drifted)} never crossed the bound"
                        f" {fmt(bound)}; the drift injection is broken")
    if not post <= bound:
        raise GateError(f"post-refresh MAE {fmt(post)} still above the"
                        f" drift-policy bound {fmt(bound)}")
    print(f"OK (stale {fmt(drifted)} -> post-refresh {fmt(post)} <= {fmt(bound)},"
          f" partial retrain {retrained}/{total})")

    # Sustained-append compaction leg.
    compaction = section(doc, "compaction", f"no compaction section in {path}")
    threshold = fmt(compaction.get("compact_min_rows"))
    print(f"compaction: {fmt(compaction.get('append_rows'))} rows appended"
          f" against a {threshold}-row fold threshold")
    crows = rows_of(compaction)
    for row in crows:
        mode = fmt(row.get("mode"))
        compactions, trimmed = row.get("compactions"), row.get("trimmed_rows")
        peak, final = fmt(row.get("peak_delta_rows")), fmt(row.get("final_delta_rows"))
        bounded, match = row.get("delta_bounded"), row.get("answers_match")
        print(f"mode {mode}: {fmt(compactions)} compaction(s), {fmt(trimmed)} rows"
              f" trimmed, delta peak {peak} / final {final} rows, bounded"
              f" {fmt(bounded)}, answers_match {fmt(match)}")
        if compactions is None or compactions < 1:
            raise GateError(f"mode {mode} never compacted — the delta grows"
                            " without bound under sustained appends")
        if trimmed is None or trimmed < 1:
            raise GateError(f"mode {mode} folded rows but trimmed none —"
                            " compaction is not reclaiming delta storage")
        if bounded is not True:
            raise GateError(f"mode {mode} resident delta is not bounded by the"
                            f" fold threshold (peak {peak}, final {final} vs"
                            f" threshold {threshold})")
        if match is not True:
            raise GateError(f"mode {mode} served an answer that diverged from"
                            " the from-scratch scan across a base-table swap")
    if len(crows) < 2:
        raise GateError(f"only {len(crows)} compaction mode row(s) ran (need 2)")
    print("OK (compaction bounded the delta in both modes with bit-identical"
          " answers)")


GATES = {
    "overhead": check_overhead,
    "resident": check_resident,
    "streaming": check_streaming,
}


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_serving.json"
    names = argv[2:] or list(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"usage: {argv[0]} [BENCH_serving.json [gate ...]];"
              f" gates: {', '.join(GATES)}", file=sys.stderr)
        return 2
    if not os.path.isfile(path):
        print(f"error: {path} not found (run bench_serving_throughput first)",
              file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as f:
        # Decimal keeps every number spelled as the snapshot spells it.
        doc = json.load(f, parse_float=Decimal)

    failed = []
    for name in names:
        print(f"== {name}")
        try:
            GATES[name](doc, path)
        except GateError as e:
            print(f"error: {e}", file=sys.stderr)
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
