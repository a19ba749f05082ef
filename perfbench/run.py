#!/usr/bin/env python3
"""Workload benchmark of catmark: publish and dispute.

    python3 perfbench/run.py --workload publish --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload dispute --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --compare BASE NEW

A run builds the benchmark (perfbench/CMakeLists.txt, which compiles the
library from this checkout) under .bench_build/, generates the workload's
inputs from the seed in a separate process, runs the workload, and prints
every metric by name and unit. Its last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A report stamped with the
host fingerprint goes to .bench_build/reports/. --compare refuses to compare
reports whose fingerprints differ, and reports that pair ambiguously. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
BINARY = BUILD / "catmark_perfbench"
WORKLOADS = ("publish", "dispute")
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_SLACK_S = 90

# End-to-end metrics: (name, unit), all lower-is-better. Every workload
# reports all of them; what an "op" is depends on the workload (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)

# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("relation.load_ms", "ms"),
    ("relation.load_mb_per_s", "MB/s"),
    ("relation.save_ms", "ms"),
    ("relation.save_mb_per_s", "MB/s"),
    ("relation.catm_bytes_per_row", "B/row"),
    ("core.embed_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.messages_per_row", "ratio"),
    ("core.fit_ratio", "ratio"),
    ("core.altered_per_fit", "ratio"),
    ("core.plan_ms", "ms"),
    ("core.pass_us_per_key", "us/key"),
    ("core.decide_us", "us"),
    ("core.verify_keys_us", "us"),
    ("core.cert_parse_us", "us"),
    ("crypto.hash_ns_per_msg", "ns/msg"),
    ("crypto.fitness_ns_per_row", "ns/row"),
    ("ecc.decode_us", "us"),
    ("service.sweep_overhead_ms", "ms"),
    ("service.execute_us", "us"),
    ("service.insert_us", "us"),
    ("service.open_ms", "ms"),
    ("service.hashed_keys_ratio", "ratio"),
    ("service.fit_ratio", "ratio"),
    ("common.parallel_for_us", "us"),
    ("trace.overhead_op_p50_ms", "ms"),
    ("trace.overhead_setup_s", "s"),
)

# Each workload's own names for its end-to-end figures, printed beside the
# generic metrics: (name, source metric, unit).
ALIASES = {
    "publish": (("publish_ms", "publish_ms", "ms"),
                ("verify_ms", "verify_ms", "ms")),
    "dispute": (("sweep_ms", "op_p50_ms", "ms"),
                ("sweep_tail_ms", "op_tail_ms", "ms")),
}

ENV_KEYS = ("CATMARK_THREADS", "CATMARK_SIMD", "CATMARK_PRF")
COMMIT_KEYS = ("git_sha", "source_digest")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    tmp = ROOT / ".bench_build" / "tmp"  # the compiler's scratch files
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp),
               CCACHE_DIR=str(ROOT / ".bench_build" / "ccache"))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def git_sha():
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the library sources and the benchmark, by path."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(raw, args):
    fp = dict(raw["host"])
    fp.update({key: os.environ.get(key) for key in ENV_KEYS})
    fp.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
              trace=args.trace, git_sha=git_sha(),
              source_digest=source_digest())
    return fp


def ops(raw, traced):
    """The op samples of one kind (traced or not)."""
    keep = [i for i, t in enumerate(raw["op_traced"]) if bool(t) == traced]
    return {
        "ms": [raw["op_ms"][i] for i in keep],
        "parts": {k: [v[i] for i in keep] for k, v in raw["parts"].items()},
    }


def end_to_end(raw, sample, setup):
    """End-to-end metrics over one set of op samples and set-up times."""
    tail = stats.block_tail(sample["ms"])
    m = {
        "setup_s": stats.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p50_ms": stats.median(sample["ms"]),
        # Too few samples for the tail rule: the slowest op stands in.
        "op_tail_ms": tail[0] if tail else max(sample["ms"]),
    }
    info = {"tail_percentile": tail[1] if tail else 100.0,
            "tail_samples": tail[2] if tail else len(sample["ms"]),
            "tail_blocks": tail[3] if tail else 1,
            "tail_rule_met": tail is not None}
    for name, values in sample["parts"].items():
        m[name] = stats.median(values)
    return m, info


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, start, end, parent, op, value = line.rstrip("\n").split("\t")
            spans.append((name, int(start), int(end), int(parent), int(op),
                          float(value)))
    return spans


def per_layer(raw, spans, untraced_m, traced_m, traced_setup, untraced_setup):
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def dur(name, scale):
        return [(s[2] - s[1]) / scale for s in by_name.get(name, [])]

    def med_dur(name, scale):
        return stats.median(dur(name, scale))

    def rate(name, work_scale, time_scale):
        return stats.median([s[5] / work_scale / ((s[2] - s[1]) / time_scale)
                             for s in by_name.get(name, [])])

    def per_unit(name, time_scale):
        return stats.median([(s[2] - s[1]) / time_scale / s[5]
                             for s in by_name.get(name, [])])

    def mean_counter(name):
        values = raw["counters"][name]
        return sum(values) / len(values)

    # Per tick (one bench.mirror parent span): its InsertBatch calls, summed.
    insert_ns = {}
    for s in spans:
        if s[0] == "service.insert" and s[3] >= 0:
            insert_ns[s[3]] = insert_ns.get(s[3], 0) + (s[2] - s[1])

    plan_ms = med_dur("core.plan", 1e6)
    pass_ms = med_dur("core.pass", 1e6)
    decide_us = med_dur("core.decide", 1e3)
    sweep_candidates = stats.median([s[5] for s in by_name["service.sweep"]])
    return {
        "relation.load_ms": med_dur("relation.load", 1e6),
        "relation.load_mb_per_s": rate("relation.load", 1e6, 1e9),
        "relation.save_ms": med_dur("relation.save", 1e6),
        "relation.save_mb_per_s": rate("relation.save", 1e6, 1e9),
        "relation.catm_bytes_per_row":
            mean_counter("relation.catm_bytes_per_row"),
        "core.embed_ms": med_dur("core.embed", 1e6),
        "core.detect_ms": med_dur("core.detect", 1e6),
        "core.messages_per_row": mean_counter("core.messages_per_row"),
        "core.fit_ratio": mean_counter("core.fit_ratio"),
        "core.altered_per_fit": mean_counter("core.altered_per_fit"),
        "core.plan_ms": plan_ms,
        "core.pass_us_per_key": per_unit("core.pass", 1e3),
        "core.decide_us": decide_us,
        "core.verify_keys_us": med_dur("core.verify_keys", 1e3),
        "core.cert_parse_us": med_dur("core.cert_parse", 1e3),
        "crypto.hash_ns_per_msg": per_unit("crypto.hash", 1.0),
        "crypto.fitness_ns_per_row": per_unit("crypto.fitness", 1.0),
        "ecc.decode_us": med_dur("ecc.decode", 1e3),
        "service.sweep_overhead_ms": (med_dur("service.sweep", 1e6) - plan_ms
                                      - pass_ms
                                      - decide_us * sweep_candidates / 1e3),
        "service.execute_us": med_dur("service.execute", 1e3),
        "service.insert_us": stats.median(list(insert_ns.values())) / 1e3,
        "service.open_ms": med_dur("service.open", 1e6),
        "service.hashed_keys_ratio": mean_counter("service.hashed_keys_ratio"),
        "service.fit_ratio": mean_counter("service.fit_ratio"),
        "common.parallel_for_us": med_dur("common.parallel_for", 1e3),
        "trace.overhead_op_p50_ms":
            traced_m["op_p50_ms"] - untraced_m["op_p50_ms"],
        "trace.overhead_setup_s": (stats.median(traced_setup)
                                   - stats.median(untraced_setup)),
    }


def layer_self_ms(spans, traced_ops):
    """Self time per layer over the timed ops' spans, in ms per op."""
    inside = [i for i, s in enumerate(spans) if s[4] >= 0]
    index = {i: k for k, i in enumerate(inside)}
    local = [(spans[i][1], spans[i][2], index.get(spans[i][3], -1))
             for i in inside]
    out = {}
    for i, self_ns in zip(inside, stats.self_times(local)):
        layer = stats.layer_of(spans[i][0])
        out[layer] = out.get(layer, 0.0) + self_ns / 1e6 / max(traced_ops, 1)
    return dict(sorted(out.items()))


def run(args):
    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload " + args.workload)
    build()
    work = (ROOT / ".bench_build" / "work" /
            f"{args.workload}-{args.seed}-{os.getpid()}")
    reports = ROOT / ".bench_build" / "reports"
    # Every run gets its own report: runs of the same seed never overwrite.
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", str(work)]
        gen = subprocess.run([str(BINARY), "gen"] + common, stdout=sys.stderr,
                             timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            raise RuntimeError("input generation failed")
        raw_path, spans_path = work / "raw.json", work / "spans.tsv"
        done = subprocess.run(
            [str(BINARY), "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(raw_path), "--spans", str(spans_path)],
            stdout=sys.stderr, timeout=args.seconds + RUN_SLACK_S)
        if done.returncode != 0:
            raise RuntimeError("workload run failed")
        raw = json.loads(raw_path.read_text())
        spans = read_spans(spans_path) if args.trace else []
        trace_dir = ROOT / ".bench_build" / "traces"
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(spans_path, trace_dir / f"{stem}.spans.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced = bool(args.trace)
    setup_all = raw["setup_s"]
    setup_traced = [v for v, t in zip(setup_all, raw["setup_traced"]) if t]
    setup_untraced = [v for v, t in zip(setup_all, raw["setup_traced"])
                      if not t]
    untraced_m, info = end_to_end(raw, ops(raw, False), setup_untraced)
    rate = stats.error_rate(raw["failed"], raw["attempted"])
    if rate is None:
        raise RuntimeError("no op was attempted")
    stolen = raw["loop_stolen_ms"] / max(raw["loop_wall_ms"], 1e-9)
    report = {"fingerprint": fingerprint(raw, args), "end_to_end": untraced_m,
              "setup_samples_s": setup_untraced, "op_samples_ms":
                  ops(raw, False)["ms"],
              "tail": info, "error_rate": rate, "stolen_share": stolen,
              "attempted": raw["attempted"],
              "failed": raw["failed"], "failures": raw["failures"]}

    for name, unit in END_TO_END:
        print(f"{name} {untraced_m[name]:.6g} {unit}")
    for alias, source, unit in ALIASES[args.workload]:
        print(f"{alias} {untraced_m[source]:.6g} {unit}")
    print(f"op_tail_ms is the median of {info['tail_blocks']} block tails, "
          f"each p{info['tail_percentile']:.2f} of at least "
          f"{info['tail_samples']} samples"
          + ("" if info["tail_rule_met"] else " (too few samples: the max)"))
    print(f"error_rate {rate:.6g} ratio ({raw['failed']}/{raw['attempted']})")
    print(f"stolen_share {stolen:.6g} ratio (of the timed ops' wall-clock "
          "time, taken by the hypervisor; every timing excludes it)")
    for why in raw["failures"]:
        print("failure: " + why)

    metrics = {name: untraced_m[name] for name, _ in END_TO_END}
    units = dict(END_TO_END)
    if traced:
        traced_m, _ = end_to_end(raw, ops(raw, True), setup_traced)
        layers = per_layer(raw, spans, untraced_m, traced_m, setup_traced,
                           setup_untraced)
        overhead = {name: traced_m[name] - untraced_m[name]
                    for name, _ in END_TO_END if name != "peak_rss_mb"}
        overhead["peak_rss_mb"] = raw["span_bytes"] / 2**20  # the span store
        self_ms = layer_self_ms(spans, sum(raw["op_traced"]))
        report.update(per_layer=layers, trace_overhead=overhead,
                      self_ms_per_op=self_ms, spans=raw["spans"])
        for name, unit in PER_LAYER:
            print(f"{name} {layers[name]:.6g} {unit}")
        for name, value in overhead.items():
            print(f"trace overhead {name} {value:+.6g} {units[name]}")
        for layer, ms in self_ms.items():
            print(f"self time {layer} {ms:.6g} ms/op")
        metrics, units = layers, dict(PER_LAYER)

    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def load_reports(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def pair_key(report):
    """A report's fingerprint without the commit, as a string."""
    fp = report["fingerprint"]
    return json.dumps({k: v for k, v in fp.items() if k not in COMMIT_KEYS},
                      sort_keys=True)


def pair_reports(base_reports, new_reports):
    """Pairs base and new reports by pair_key. Raises ValueError, naming the
    offending fingerprints, when a side holds two reports with one key (a
    pair needs its own seed) or a report has no counterpart."""
    sides = {}
    for side, reports in (("base", base_reports), ("new", new_reports)):
        index = {}
        for r in reports:
            k = pair_key(r)
            if k in index:
                raise ValueError(f"two {side} reports share a fingerprint: {k}")
            index[k] = r
        sides[side] = index
    base, new = sides["base"], sides["new"]
    unpaired = sorted(set(base) ^ set(new))
    if unpaired:
        raise ValueError("these fingerprints have no counterpart:\n" +
                         "\n".join(("  base " if k in base else "  new  ") + k
                                    for k in unpaired))
    return base, new


def compare(base_path, new_path):
    """Pairs reports by fingerprint (all of it but the commit) and prints,
    per workload, each end-to-end metric's median and spread on both sides
    and how many pairs the new side wins. Refuses (exit 2) reports that do
    not pair one to one."""
    try:
        base, new = pair_reports(load_reports(base_path),
                                 load_reports(new_path))
    except ValueError as e:
        log(f"refusing to compare: {e}")
        return 2
    groups = {}
    for k in sorted(base):
        fp = base[k]["fingerprint"]
        groups.setdefault((fp["workload"], fp["trace"]), []).append(k)

    def spread(values):
        return f"{stats.spread(values):.3f}" if len(values) > 1 else "n/a"

    for (workload, trace), keys in sorted(groups.items()):
        print(f"{workload} (trace {trace}, {len(keys)} pairs)")
        for name, unit in END_TO_END:
            b = [base[k]["end_to_end"][name] for k in keys]
            n = [new[k]["end_to_end"][name] for k in keys]
            wins = sum(y < x for x, y in zip(b, n))
            mb, mn = stats.median(b), stats.median(n)
            print(f"  {name} base {mb:.6g} (spread {spread(b)}) "
                  f"new {mn:.6g} (spread {spread(n)}) {unit}: "
                  f"{(mn - mb) / mb * 100:+.2f}%, new better in "
                  f"{wins}/{len(keys)} pairs")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
