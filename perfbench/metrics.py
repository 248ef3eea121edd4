"""Turns one perfbench driver record (ops, spans, counters) into metrics.

Pure functions only, so the rules are unit-tested without a build
(tests/test_metrics.py): the tail percentile rule, gap-to-generation
attribution inside a find, self time of spans, and deltas of cumulative
counters.
"""

import statistics

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "find_p50_ms": "ms",
    "find_tail_ms": "ms",
}

PER_LAYER = {
    "proc.peak_rss_mb": "MiB",
    "core.prep_s": "s",
    "core.gen_s": "s",
    "core.l2.gen_s": "s",
    "core.l3.gen_s": "s",
    "core.gen_share": "ratio",
    "core.eval_s": "s",
    "core.l2.eval_s": "s",
    "core.l3.eval_s": "s",
    "core.eval_calls": "count",
    "core.candidates": "count",
    "core.l2.candidates": "count",
    "core.l3.candidates": "count",
    "core.valid": "count",
    "core.valid_ratio": "ratio",
    "core.pruned": "count",
    "linalg.eval_words": "words",
    "linalg.words_per_s": "words/s",
    "dist.ship_s": "s",
    "dist.eval_s": "s",
    "dist.critical_path_s": "s",
    "dist.worker_busy_s": "s",
    "dist.overhead_s": "s",
    "dist.rounds": "count",
    "dist.broadcast_bytes": "B",
    "dist.gather_bytes": "B",
    "dist.retries": "count",
    "dist.speculative": "count",
    "dist.workers_lost": "count",
    "dist.fallback": "count",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.hit_tail_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.reply_bytes": "B",
    "serve.invalidations": "count",
    "stream.append_p50_ms": "ms",
    "stream.append_tail_ms": "ms",
    "stream.append_drift": "ratio",
    "stream.rows_appended": "count",
    "stream.evaluations": "count",
    "stream.window_rebuilds": "count",
    "stream.rebuild_ratio": "ratio",
    "stream.alerts": "count",
    "trace.overhead_frac": "ratio",
}

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with min(TAIL_BEYOND, n // 10) samples beyond.

    Returns (value, percentile, sample_count). With n sorted samples the
    sample at 1-based rank r has n - r samples beyond it. From 100 samples
    on, the rule keeps TAIL_BEYOND samples beyond the tail (r = n - 10, at
    or above p90). Below that, demanding 10 beyond would put the "tail" at
    or under the median (rank 1, the minimum, at n = 11), so it keeps n // 10
    beyond instead: the nearest-rank p90, the maximum below 10 samples. The
    rank then moves by at most one place as n grows by one, so a window that
    fits one more op does not jump the metric from the maximum to the
    minimum. The caller prints the percentile and count beside the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - min(TAIL_BEYOND, n // 10)
    return ordered[rank - 1], 100.0 * rank / n, n


def counter_deltas(before, after):
    """Per-key after - before for cumulative counters (booleans as 0/1).

    Keys missing from `before` count from zero, so a counter that first
    appears mid-run is attributed whole to the interval.
    """
    return {key: float(after[key]) - float(before.get(key, 0))
            for key in after}


def gen_gaps(find, prep, evals):
    """The gaps of a find outside prep and evaluation, as generation.

    `find` and `prep` are (begin, end) pairs (prep may be None); `evals` is
    a list of (level, begin, end). The gap before each evaluate call is
    charged to that call's level: it holds that level's candidate
    generation plus the previous level's top-K upkeep (before the first
    level-2 call it also holds level-1 scoring). The gap after the last
    call (last top-K upkeep, result assembly) is the tail. Returns
    ([(level, begin, end)], tail_length) in the spans' time unit.
    """
    cursor = prep[1] if prep else find[0]
    gaps = []
    for level, begin, end in sorted(evals, key=lambda e: e[1]):
        gaps.append((level, cursor, max(cursor, begin)))
        cursor = max(cursor, end)
    return gaps, max(0, find[1] - cursor)


def attribute_gaps(find, prep, evals):
    """Generation time per level plus the tail (see gen_gaps)."""
    gaps, tail_length = gen_gaps(find, prep, evals)
    gen = {}
    for level, begin, end in gaps:
        gen[level] = gen.get(level, 0) + end - begin
    return gen, tail_length


def self_times(spans):
    """Self time per span id: duration minus the union of its children.

    `spans` are dicts with id, parent, b, e.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["b"], span["e"]))
    out = {}
    for span in spans:
        covered, cursor = 0, span["b"]
        for begin, end in sorted(children.get(span["id"], [])):
            begin, end = max(begin, cursor), min(end, span["e"])
            if end > begin:
                covered += end - begin
                cursor = end
        out[span["id"]] = (span["e"] - span["b"]) - covered
    return out


def derived_gen_spans(spans):
    """Adds a "gen" span per gap (see gen_gaps) to every traced find, so
    the written trace shows generation explicitly."""
    by_op = {}
    for span in spans:
        by_op.setdefault(span["op"], []).append(span)
    out = list(spans)
    next_id = max((s["id"] for s in spans), default=0) + 1
    for op, op_spans in by_op.items():
        find = next((s for s in op_spans if s["name"] == "find"), None)
        evals = [(s["level"], s["b"], s["e"]) for s in op_spans
                 if s["name"] == "evaluate"]
        if find is None or not evals:
            continue
        prep = next(((s["b"], s["e"]) for s in op_spans
                     if s["name"] == "prep"), None)
        for level, begin, end in gen_gaps((find["b"], find["e"]), prep,
                                          evals)[0]:
            out.append({"op": op, "id": next_id, "parent": find["id"],
                        "name": "gen", "level": level, "b": begin, "e": end})
            next_id += 1
    return out


def _ms(op):
    return (op["e"] - op["b"]) * 1e-6


def end_to_end(raw):
    """End-to-end metrics plus notes (tail percentile and counts)."""
    ops = [op for op in raw["ops"] if not op["traced"]]
    finds = [_ms(op) for op in ops if op["kind"] == "find" and op["ok"]]
    value, pct, n = tail(finds)
    window = raw["window_s"]
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "ops_per_s": len(raw["ops"]) / window if window > 0 else 0.0,
        "find_p50_ms": median(finds),
        "find_tail_ms": value,
    }
    notes = {"find_tail_ms": "p%.1f of %d finds" % (pct, n),
             "find_p50_ms": "%d finds" % n,
             "ops_per_s": "%d ops in %.2f s" % (len(raw["ops"]), window),
             "setup_s": "median of %d set-ups" % len(raw["setup_s"])}
    return metrics, notes


def per_layer(raw):
    """Per-layer metrics from a traced run; 0 where a layer is not on the
    workload's path."""
    m = {name: 0.0 for name in PER_LAYER}
    m["proc.peak_rss_mb"] = raw["peak_rss_mb"]
    spans_by_op = {}
    for span in raw["spans"]:
        spans_by_op.setdefault(span["op"], []).append(span)
    counters = {c["op"]: c["c"] for c in raw["counters"]}
    ops = raw["ops"]

    # -- core / linalg / dist times: one sample per traced find. --
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for op in ops:
        spans = spans_by_op.get(op["id"], [])
        evals = [s for s in spans if s["name"] == "evaluate"]
        find = next((s for s in spans if s["name"] == "find"), None)
        if not op["traced"] or find is None or not evals:
            continue
        c = counters.get(op["id"], {})
        prep = next((s for s in spans if s["name"] == "prep"), None)
        find_s = (find["e"] - find["b"]) * 1e-9
        prep_s = (prep["e"] - prep["b"]) * 1e-9 if prep else 0.0
        eval_s = sum(s["e"] - s["b"] for s in evals) * 1e-9
        gen, tail_ns = attribute_gaps(
            (find["b"], find["e"]), (prep["b"], prep["e"]) if prep else None,
            [(s["level"], s["b"], s["e"]) for s in evals])
        gen_s = (sum(gen.values()) + tail_ns) * 1e-9
        add("core.prep_s", prep_s)
        add("core.gen_s", gen_s)
        add("core.gen_share", gen_s / find_s if find_s > 0 else 0.0)
        add("core.eval_s", eval_s)
        for level in (2, 3):
            add("core.l%d.gen_s" % level, gen.get(level, 0) * 1e-9)
            add("core.l%d.eval_s" % level, sum(
                s["e"] - s["b"] for s in evals if s["level"] == level) * 1e-9)
        words = c.get("eval_words", 0)
        add("linalg.words_per_s", words / eval_s if eval_s > 0 else 0.0)
        if "dist_after" in c:
            d = counter_deltas(c["dist_before"], c["dist_after"])
            add("dist.eval_s", eval_s)
            add("dist.critical_path_s", d["critical_path_s"])
            add("dist.worker_busy_s", d["worker_busy_s"])
            add("dist.overhead_s", eval_s - d["critical_path_s"])
            for key in ("rounds", "broadcast_bytes", "gather_bytes",
                        "retries", "speculative", "workers_lost",
                        "fallback"):
                add("dist." + key, d[key])

    # -- work counts: from the reference run of each input dataset, so
    # they repeat exactly at a fixed seed however many finds the window
    # fits (median over batch-wide's dataset pool). --
    for work in raw.get("extra", {}).get("work", []):
        levels = [row for row in work["levels"] if row[0] >= 2 and row[1]]
        candidates = sum(row[1] for row in levels)
        valid = sum(row[2] for row in levels)
        add("core.eval_calls", len(levels))
        add("core.candidates", candidates)
        for level in (2, 3):
            add("core.l%d.candidates" % level,
                sum(row[1] for row in levels if row[0] == level))
        add("core.valid", valid)
        add("core.valid_ratio", valid / candidates if candidates else 0.0)
        add("core.pruned", sum(row[3] for row in work["levels"]
                               if row[0] >= 2))
        add("linalg.eval_words", work["eval_words"])
    for name, values in samples.items():
        m[name] = median(values)
    m["dist.ship_s"] = median(raw["ship_s"])

    # -- serve / stream: client-side latencies and counts, server-side
    # queue and run time of traced misses, counter deltas over the run. --
    extra = raw.get("extra", {})
    if "stats_after" in extra:
        queue, run, wire = [], [], []
        for op in ops:
            spans = {s["name"]: s for s in spans_by_op.get(op["id"], [])}
            if op["kind"] == "find" and "queue" in spans and "run" in spans:
                q = (spans["queue"]["e"] - spans["queue"]["b"]) * 1e-6
                r = (spans["run"]["e"] - spans["run"]["b"]) * 1e-6
                queue.append(q)
                run.append(r)
                wire.append(_ms(op) - q - r)
        m["serve.queue_ms"] = median(queue)
        m["serve.run_ms"] = median(run)
        m["serve.wire_ms"] = median(wire)
        hits = [_ms(op) for op in ops if op["kind"] == "hit" and op["ok"]]
        appends = [op for op in ops if op["kind"] == "append" and op["ok"]]
        appends.sort(key=lambda op: op["b"])
        append_ms = [_ms(op) for op in appends]
        m["serve.hit_p50_ms"] = median(hits)
        m["serve.hit_tail_ms"] = tail(hits)[0]
        finds = sum(1 for op in ops if op["kind"] in ("find", "hit"))
        m["serve.cache_hit_ratio"] = (
            sum(1 for op in ops if op["kind"] == "hit") / finds if finds
            else 0.0)
        per_op = [counters.get(op["id"], {}) for op in ops]
        m["serve.rejected"] = sum(c.get("rejected", 0) for c in per_op)
        m["serve.reply_bytes"] = median(
            [counters.get(op["id"], {}).get("reply_bytes", 0)
             for op in ops if op["kind"] in ("find", "hit")])
        m["serve.invalidations"] = sum(c.get("invalidated", 0) for c in per_op)
        m["stream.append_p50_ms"] = median(append_ms)
        m["stream.append_tail_ms"] = tail(append_ms)[0]
        half = len(append_ms) // 2
        if half > 0:
            m["stream.append_drift"] = (median(append_ms[half:]) /
                                        median(append_ms[:half]))
        m["stream.rows_appended"] = sum(c.get("rows_appended", 0)
                                        for c in per_op)
        w = counter_deltas(extra["watch_before"], extra["watch_after"])
        m["stream.evaluations"] = w["evaluations"]
        m["stream.window_rebuilds"] = w["window_rebuilds"]
        m["stream.rebuild_ratio"] = (
            w["window_rebuilds"] / w["evaluations"] if w["evaluations"]
            else 0.0)
        m["stream.alerts"] = w["alerts"]

    # -- tracing overhead: traced vs untraced finds of the same run. --
    traced = [_ms(op) for op in ops
              if op["traced"] and op["kind"] == "find" and op["ok"]]
    untraced = [_ms(op) for op in ops
                if not op["traced"] and op["kind"] == "find" and op["ok"]]
    if traced and untraced:
        m["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    return m


def split_checks(workload, m, extra):
    """The predicted layer split of each workload (README "Predicted
    split"), evaluated on a traced run's per-layer metrics."""
    find_s = m["core.prep_s"] + m["core.gen_s"] + m["core.eval_s"]
    if workload == "batch-wide":
        return {"core.gen_share >= 0.9": m["core.gen_share"] >= 0.9,
                "core.eval_s < 5% of find":
                    find_s > 0 and m["core.eval_s"] < 0.05 * find_s}
    if workload == "batch-deep":
        return {"core.l3.gen_s >= 25% of find":
                    find_s > 0 and m["core.l3.gen_s"] >= 0.25 * find_s,
                "core.eval_s >= 25% of find":
                    find_s > 0 and m["core.eval_s"] >= 0.25 * find_s}
    if workload == "dist-shards":
        return {"dist.eval_s >= 70% of find":
                    find_s > 0 and m["dist.eval_s"] >= 0.7 * find_s}
    share = extra.get("designed_hit_share", 0.5)
    return {"serve.cache_hit_ratio within 0.1 of %.2f" % share:
                abs(m["serve.cache_hit_ratio"] - share) <= 0.1}
