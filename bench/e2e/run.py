#!/usr/bin/env python3
"""The repository benchmark: build tpio_bench from this checkout, run it,
and report.

  python3 bench/e2e/run.py [--workload W] [--seed S] [--seconds N | --passes N]
                           [--trace 0|1] [--trace-out FILE] [--out FILE]
  python3 bench/e2e/run.py --compare A B
  python3 bench/e2e/run.py --smoke [TPIO_BENCH]

tpio_bench prints one line of raw samples per workload. This script prints
every metric with its unit, n, median, quartiles, min and max; with --out it
appends one record line per workload; and it ends stdout with the one-line
JSON result. --compare judges record set B against record set A under the
bounds in BENCHMARK.json. --smoke is the self-test (ctest e2e_smoke).

The build lives in .bench_build/e2e under the checkout root; build output
goes to stderr.
"""
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    """Configure and build tpio_bench; its path, or None on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "tpio_bench",
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: building tpio_bench failed", file=sys.stderr)
            return None
    return os.path.join(BUILD, "tpio_bench")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(binary, args):
    """Run tpio_bench; its exit code and the sample lines it printed. Other
    output (--help) passes through."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    recs = []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            recs.append(json.loads(line))
        else:
            print(line)
    return proc.returncode, recs


# ---- statistics ---------------------------------------------------------------

def summary(samples):
    """n, median, quartiles (statistics.quantiles, n=4), min and max."""
    v = sorted(x for x in samples if x is not None)
    if not v:
        return {"n": 0, "median": None, "p25": None, "p75": None,
                "min": None, "max": None}
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
    return {"n": len(v), "median": statistics.median(v), "p25": q1,
            "p75": q3, "min": v[0], "max": v[-1]}


def correct(rec):
    return rec["attempted"] > 0 and rec["failed"] == 0


def record(rec):
    """The --out record of one workload run: its identity and counts, and
    each metric's summary instead of its samples."""
    out = {k: v for k, v in rec.items() if k not in ("metrics", "split")}
    out["metrics"] = {name: dict(unit=m["unit"], **summary(m["samples"]))
                      for name, m in rec["metrics"].items()}
    return out


def result_line(recs, bench):
    """The contract's result: the median of every metric BENCHMARK.json
    lists (end_to_end, or per_layer for a traced run). Several workloads
    prefix each name with '<workload>.'."""
    listed = bench["per_layer" if recs[0]["trace"] else "end_to_end"]
    ok = all(correct(r) for r in recs)
    metrics = {}
    for rec in recs:
        for m in listed:
            got = rec["metrics"].get(m["name"])
            value = summary(got["samples"])["median"] if got else None
            ok = ok and value is not None
            key = m["name"] if len(recs) == 1 else rec["workload"] + "." + m["name"]
            metrics[key] = {"value": value, "unit": got["unit"] if got else m["unit"]}
    return {"correct": ok, "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs), "metrics": metrics}


def fmt(v):
    return "-" if v is None else "%.6g" % v


def print_report(rec):
    kind = "traced per-layer run" if rec["trace"] else "end-to-end"
    unit = "rounds" if rec["trace"] else "passes"
    print("\n== %s: %s, seed %d, %d %s x %d runs, sim_fingerprint %s" % (
        rec["workload"], kind, rec["seed"], rec["passes"], unit,
        rec["runs_per_pass"], rec["sim_fingerprint"] or "-"))
    print("%-26s %-8s %5s %12s %12s %12s %12s %12s" % (
        "metric", "unit", "n", "median", "p25", "p75", "min", "max"))
    for name, m in rec["metrics"].items():
        s = summary(m["samples"])
        print("%-26s %-8s %5d %12s %12s %12s %12s %12s" % (
            name, m["unit"], s["n"], fmt(s["median"]), fmt(s["p25"]),
            fmt(s["p75"]), fmt(s["min"]), fmt(s["max"])))
    if rec["split"]:
        total = sum(sec for _, sec in rec["split"])
        print("host-time split of the composed traced pass (first round):")
        for name, sec in rec["split"]:
            print("  %-20s %10.4f s  %5.1f%%" % (
                name, sec, 100.0 * sec / total if total > 0 else 0.0))
        print("dominant layer metric: %s" % max(rec["split"], key=lambda x: x[1])[0])
    print("attempted %d, failed %d, failed_frac %s%s" % (
        rec["attempted"], rec["failed"], fmt(failed_frac([rec])),
        "" if correct(rec) else "  ** NOT CORRECT **"))
    for e in rec["errors"]:
        print("  error: %s" % e)


# ---- --compare ----------------------------------------------------------------

def load_records(path):
    """Record lines of one side, grouped by workload in file order."""
    groups = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if "workload" not in rec or "metrics" not in rec:
                raise ValueError("%s:%d is not a record line" % (path, lineno))
            groups.setdefault(rec["workload"], []).append(rec)
    return groups


def failed_frac(recs):
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else 1.0


def side(recs, name):
    """(median, spread, lowest run, highest run) of one metric on one side,
    or None when no record has it. With three or more runs the spread is
    that of the run medians; with fewer it falls back to the spread of the
    passes within each run, and is unknown (None) if a run had fewer than
    three passes."""
    ms = [r["metrics"][name] for r in recs
          if r["metrics"].get(name, {}).get("median") is not None]
    if not ms:
        return None
    meds = [m["median"] for m in ms]
    med = statistics.median(meds)
    if len(meds) >= 3:
        q1, _, q3 = statistics.quantiles(meds, n=4)
        return med, (q3 - q1) / med, min(meds), max(meds)
    spread = None
    if all(m["n"] >= 3 for m in ms):
        spread = max((m["p75"] - m["p25"]) / m["median"] for m in ms)
    return med, spread, min(m["min"] for m in ms), max(m["max"] for m in ms)


def judge(a, b, metric):
    """Verdict on side b against side a for one BENCHMARK.json metric."""
    (ma, sa, a_lo, a_hi), (mb, sb, b_lo, b_hi) = a, b
    lower = metric["better"] == "lower"
    change = (mb - ma) / ma if lower else (ma - mb) / ma  # > 0: worse
    if sa is None or sb is None:
        return change, "unresolved"
    if max(sa, sb) > metric["bound"]:
        b_below, b_above = b_hi < a_lo, b_lo > a_hi
        if (b_below if lower else b_above):
            return change, "better"
        if (b_above if lower else b_below):
            return change, "worse"
        return change, "unresolved"
    if change > metric["bound"]:
        return change, "worse"
    if change < -metric["bound"]:
        return change, "better"
    return change, "same"


def verdicts(a, b, bench):
    """Rows (workload, metric, side a, side b, change, bound, verdict) for
    every workload of a also in b, each end-to-end metric and failed_frac."""
    rows = []
    for workload, ra in a.items():
        rb = b.get(workload)
        if rb is None:
            continue
        for m in bench["end_to_end"]:
            sa, sb = side(ra, m["name"]), side(rb, m["name"])
            if sa is None or sb is None:
                continue
            change, verdict = judge(sa, sb, m)
            rows.append((workload, m["name"], sa, sb, change, m["bound"], verdict))
        fa, fb = failed_frac(ra), failed_frac(rb)
        rows.append((workload, "failed_frac", (fa, None), (fb, None), None, 0.0,
                     "worse" if fb > fa else "same"))
    return rows


def compare(a_path, b_path, bench):
    try:
        a, b = load_records(a_path), load_records(b_path)
    except (OSError, ValueError) as e:
        print("run.py: --compare: %s" % e, file=sys.stderr)
        return 2
    def pct(x):
        return "      -" if x is None else "%6.1f%%" % (100.0 * x)

    rows = verdicts(a, b, bench)
    print("%-17s %-13s %12s %7s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "A median", "A IQR", "B median", "B IQR",
        "change", "bound", "verdict"))
    for workload, metric, sa, sb, change, bound, verdict in rows:
        print("%-17s %-13s %12s %s %12s %s %8s %5.1f%%  %s" % (
            workload, metric, fmt(sa[0]), pct(sa[1]), fmt(sb[0]), pct(sb[1]),
            "" if change is None else "%+7.1f%%" % (100.0 * change),
            100.0 * bound, verdict))
    for workload in a:
        if workload not in b:
            print("%-17s (absent from %s)" % (workload, b_path))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


# ---- --smoke ------------------------------------------------------------------

BAD_FLAGS = [["--workload", "nope"], ["--seed", "-1"], ["--seed", "12x"],
             ["--passes", "0"], ["--trace", "2"], ["--seconds", "wat"],
             ["--trace"], ["--passes", "1", "--seconds", "5"]]


def check_result(res, units, problems):
    """The result line must have exactly the contract's keys, report a
    correct run, and give every expected metric (name -> unit) once,
    finite, in its unit."""
    res = json.loads(json.dumps(res, allow_nan=False))
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(res))
    if res.get("correct") is not True or res["failed"] != 0:
        problems.append("result not correct: %s" % res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted %r" % res["attempted"])
    if sorted(res["metrics"]) != sorted(units):
        problems.append("metric names %s" % sorted(res["metrics"]))
    for key, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s value %r" % (key, v))
        if m.get("unit") != units.get(key):
            problems.append("%s unit %r" % (key, m.get("unit")))


def fake_record(workload, bench, median, spread, passes):
    metrics = {m["name"]: {"unit": m["unit"], "n": passes, "median": median,
                           "p25": median * (1 - spread / 2),
                           "p75": median * (1 + spread / 2),
                           "min": median * (1 - spread),
                           "max": median * (1 + spread)}
               for m in bench["end_to_end"]}
    return {"workload": workload, "attempted": 1, "failed": 0,
            "metrics": metrics}


def smoke(binary):
    bench = load_bench()
    workdir = os.path.dirname(os.path.abspath(binary))
    problems = []

    for args in BAD_FLAGS:
        proc = subprocess.run([binary] + args, capture_output=True, text=True)
        flag = "--passes" if "--passes" in args and "--seconds" in args else args[0]
        if proc.returncode != 2 or not proc.stderr.startswith(
                "tpio_bench: %s:" % flag):
            problems.append("%s: exit %d, %r" % (args, proc.returncode,
                                                 proc.stderr[:80]))

    code, recs = run_bench(binary, ["--smoke", "--passes", "1"])
    for rec in recs:
        print_report(rec)
    if code != 0 or len(recs) != 4:
        problems.append("end-to-end smoke: exit %d, %d records" % (code, len(recs)))
    else:
        res = result_line(recs, bench)
        print(json.dumps(res))
        check_result(res, {r["workload"] + "." + m["name"]: m["unit"]
                           for r in recs for m in bench["end_to_end"]}, problems)

    trace_out = os.path.join(workdir, "e2e_smoke_trace.json")
    code, traced = run_bench(binary, ["--smoke", "--passes", "1", "--trace", "1",
                                      "--workload", "restart_verified",
                                      "--trace-out", trace_out])
    for rec in traced:
        print_report(rec)
    if code != 0 or len(traced) != 1:
        problems.append("traced smoke: exit %d, %d records" % (code, len(traced)))
    else:
        res = result_line(traced, bench)
        print(json.dumps(res))
        check_result(res, {m["name"]: m["unit"] for m in bench["per_layer"]},
                     problems)
        if not res["metrics"]["trace.unattributed_frac"]["value"] < 0.10:
            problems.append("trace.unattributed_frac >= 0.10")
        with open(trace_out) as f:
            if not json.load(f)["traceEvents"]:
                problems.append("Chrome trace has no events")

    # --compare: a record set against itself, single runs of one pass (no
    # known spread), and synthetic sets with a clear regression.
    path = os.path.join(workdir, "e2e_smoke_records.json")
    with open(path, "w") as f:
        for rec in recs:
            f.write(json.dumps(record(rec)) + "\n")
    if compare(path, path, bench) != 0:
        problems.append("a record set does not compare equal to itself")
    one = load_records(path)
    few = {(w, name) for w, rs in one.items()
           for name, m in rs[0]["metrics"].items() if m["n"] < 3}
    if not few or any(v[-1] != "unresolved" for v in verdicts(one, one, bench)
                      if (v[0], v[1]) in few):
        problems.append("single one-pass runs were judged despite unknown spread")
    base = {"w": [fake_record("w", bench, x, 0.01, 5) for x in (1.0, 1.01, 0.99)]}
    slow = {"w": [fake_record("w", bench, 1.5 * x, 0.01, 5) for x in (1.0, 1.01, 0.99)]}
    alone = {"w": [fake_record("w", bench, 1.0, 0.01, 5)]}
    alone_slow = {"w": [fake_record("w", bench, 1.5, 0.01, 5)]}
    for a, b, want in ((base, base, "same"), (base, slow, "worse"),
                       (slow, base, "better"), (alone, alone_slow, "worse")):
        got = {v[-1] for v in verdicts(a, b, bench) if v[1] != "failed_frac"}
        if got != {want}:
            problems.append("synthetic compare: %s, want %s" % (got, want))

    for p in problems:
        print("smoke: FAILED: %s" % p)
    print("e2e_smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# ---- main ---------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("run.py: --compare: needs two record files", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], load_bench())
    if argv[:1] == ["--smoke"]:
        binary = argv[1] if len(argv) > 1 else build()
        return smoke(binary) if binary else 1

    out = None
    if "--out" in argv:
        i = argv.index("--out")
        if i + 1 >= len(argv):
            print("run.py: --out: missing value", file=sys.stderr)
            return 2
        out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    binary = build()
    if not binary:
        return 1
    code, recs = run_bench(binary, argv)
    if code not in (0, 1) or not recs:
        return code
    for rec in recs:
        print_report(rec)
    if out:
        with open(out, "a") as f:
            for rec in recs:
                f.write(json.dumps(record(rec)) + "\n")
    res = result_line(recs, load_bench())
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
