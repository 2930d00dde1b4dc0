"""normord benchmark: runs one workload and prints its metrics (standard library only).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0

Each timed pass starts normord in a fresh interpreter (``child.py``) with
``src`` on ``PYTHONPATH``, because CLI users pay the import and the cold
``family_row`` cache on every invocation.  One closed-loop client: the next
pass starts when the previous one has ended, and nothing else runs beside
it.  Outputs are checked against ``expected.json`` after each pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

# Duration of child.SpeedMeter's probe on the host the benchmark was written
# on (2-core VM, Python 3.11.7) while its CPU ran at full speed.  Reported
# times are the work measured in these probe durations: the seconds it
# would take on that host at full speed.  See README.md.
REFERENCE_PROBE_S = 12e-6
# A run must end within 180 s; no pass starts, and no child runs, past this.
RUN_LIMIT_S = 170.0
SETUP_STARTS = {"full": 20, "smoke": 2}
EXTRAS_PER_SEED = 3

VERIFY_PROFILE = {"full": "full", "smoke": "quick"}

# (grammar preset, multiplier, n): monomial-heavy cases beside bigint-heavy ones.
EXPAND_CASES = {
    "full": [
        ("eulerian-xy", "x", 60),
        ("trivariate-second-order", "x", 16),
        ("full-ternary", "x*y*z", 30),
        ("second-order", "x", 40),
        ("swap", "x*y", 40),
        ("pq-eulerian", "x", 40),
        ("stirling-second", "x", 200),
    ],
    "smoke": [
        ("eulerian-xy", "x", 8),
        ("full-ternary", "x*y*z", 5),
        ("stirling-second", "x", 12),
    ],
}
# The seed draws EXTRAS_PER_SEED of these small multipliers (1-2 terms,
# degree <= 2), each about 1% of a pass, so the seed barely moves the cost.
EXPAND_EXTRAS = {
    "full": [
        ("eulerian-xy", "x+y", 14),
        ("eulerian-xy", "2*x", 24),
        ("swap", "x^2", 24),
        ("swap", "x+y", 14),
        ("second-order", "x*y", 16),
        ("second-order", "y+1", 15),
        ("type-b", "x", 22),
        ("type-b", "x*y", 20),
        ("eulerian-ab", "a", 20),
        ("eulerian-ab", "a+b", 13),
        ("pq-eulerian", "x*y", 18),
        ("pq-eulerian", "2*x+y", 10),
        ("stirling-dual", "a*b", 18),
        ("stirling-dual", "b+1", 18),
        ("type-b-split", "x", 22),
        ("type-b-split", "y^2", 22),
    ],
    "smoke": [
        ("swap", "x+y", 4),
        ("type-b", "x", 4),
        ("eulerian-ab", "a", 5),
        ("stirling-dual", "b+1", 4),
    ],
}


def _enumerate(objects: str, n: int) -> list[str]:
    return ["enumerate", "--objects", objects, "--n", str(n), "--format", "json"]


def _triangle(family: str, n: int, fmt: str) -> list[str]:
    return ["triangle", "--family", family, "--n", str(n), "--format", fmt]


STREAM_COMMANDS = {
    "full": [
        _enumerate("permutations", 8),
        _enumerate("signed-permutations", 6),
        _enumerate("stirling-permutations", 6),
        _enumerate("list-partitions", 6),
        _enumerate("binary-forests", 7),
        _triangle("A", 120, "text"),
        _triangle("B", 100, "csv"),
        _triangle("Ap", 40, "text"),
        _triangle("beta", 30, "json"),
        _triangle("S2", 300, "text"),
    ],
    "smoke": [
        _enumerate("permutations", 4),
        _enumerate("signed-permutations", 3),
        _enumerate("stirling-permutations", 3),
        _enumerate("list-partitions", 3),
        _enumerate("binary-forests", 4),
        _triangle("A", 10, "text"),
        _triangle("B", 8, "csv"),
        _triangle("beta", 5, "json"),
        _triangle("S2", 20, "text"),
    ],
}


def _double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2))


# Closed forms for the number of objects (one json line each) of size n.
OBJECT_COUNTS = {
    "permutations": math.factorial,
    "signed-permutations": lambda n: 2**n * math.factorial(n),
    "stirling-permutations": lambda n: _double_factorial(2 * n - 1),
    "list-partitions": lambda n: sum(
        math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k) for k in range(1, n + 1)
    ) if n else 1,
    "binary-forests": math.factorial,
}

WORKLOADS = ("verify-full", "expand-deep", "cli-stream")
WORKLOAD_MODE = {"verify-full": "verify", "expand-deep": "expand", "cli-stream": "stream"}


# -- jobs and children --------------------------------------------------------


def make_job(workload: str, seed: int, size: str) -> dict:
    """The inputs of one pass; the same seed gives the same inputs.

    Only expand-deep draws from the seed.  Every workload keeps a fixed order
    of operations, because the order moves the child's peak RSS.
    """
    rng = random.Random(seed)
    mode = WORKLOAD_MODE[workload]
    job = {"mode": mode, "trace": False}
    if mode == "verify":
        job["profile"] = VERIFY_PROFILE[size]
    elif mode == "expand":
        job["cases"] = EXPAND_CASES[size] + rng.sample(EXPAND_EXTRAS[size], EXTRAS_PER_SEED)
    else:
        job["commands"] = STREAM_COMMANDS[size]
    return job


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def start_child(arg: str, deadline: float):
    """Run child.py once; return (last stdout line or None, spawn time, exit time)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), arg],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"child timed out after {time.monotonic() - t0:.1f} s", file=sys.stderr)
        return None, t0, time.monotonic()
    t1 = time.monotonic()
    lines = out.decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited with code {proc.returncode}", file=sys.stderr)
        return None, t0, t1
    return lines[-1], t0, t1


def setup_seconds(deadline: float) -> tuple[float, float]:
    """(seconds from spawning an interpreter until normord.cli's parser is built, probe rate)."""
    line, t0, _ = start_child("setup", deadline)
    if line is None:
        raise RuntimeError("normord.cli could not be imported in a fresh interpreter")
    stamp, rate = (float(x) for x in line.split())
    return stamp - t0, rate


def at_reference_speed(seconds: float, probe_rate: float) -> float:
    """The work of ``seconds`` at a mean probe rate, in seconds at 1 / REFERENCE_PROBE_S."""
    return seconds * probe_rate * REFERENCE_PROBE_S


def run_pass(job: dict, deadline: float) -> dict:
    """One pass in a fresh child; ``wall`` runs from spawn to the end of the timed work."""
    line, t0, t1 = start_child(json.dumps(job), deadline)
    if line is None:
        return {"ok": False, "wall": t1 - t0, "seconds": t1 - t0}
    report = json.loads(line)
    report["ok"] = True
    report["wall"] = report["end"] - t0
    report["seconds"] = at_reference_speed(report["wall"], report["probe_rate"])
    return report


# -- correctness gates ----------------------------------------------------------


def _case_key(case) -> str:
    grammar, w, n = case
    return f"{grammar}|{w}|{n}"


def gate(job: dict, report: dict, expected: dict) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, reasons) for one pass; a crashed pass fails every operation."""
    mode = job["mode"]
    reasons: list[str] = []
    if mode == "verify":
        want = expected["verify_report"][job["profile"]].splitlines()
        attempted = len(want) - 1  # one line per check, then the summary
        if not report["ok"]:
            return attempted, attempted, ["verify child failed"]
        got = report["verify"]["text"].splitlines()
        failed = sum(1 for i in range(attempted) if i >= len(got) or got[i] != want[i])
        if failed or got != want or report["verify"]["exit"] != 0:
            failed = max(failed, 1)
            reasons.append(f"verify report differs from the recorded report ({failed} checks)")
        return attempted, failed, reasons
    if mode == "expand":
        attempted = len(job["cases"])
        if not report["ok"]:
            return attempted, attempted, ["expand child failed"]
        failed = 0
        for case, got in zip(job["cases"], report["cases"]):
            want = expected["expand"].get(_case_key(case))
            bad = []
            if not got["cross_check"]:
                bad.append("apply_to disagrees with iterated derive")
            if want is None or [got["render_sha256"], got["specialize_sha256"]] != want:
                bad.append("render digest differs from the recorded digest")
            if bad:
                failed += 1
                reasons.append(f"expand {_case_key(case)}: {'; '.join(bad)}")
        return attempted, failed, reasons
    attempted = len(job["commands"])
    if not report["ok"]:
        return attempted, attempted, ["cli child failed"]
    failed = 0
    for argv, got in zip(job["commands"], report["commands"]):
        key = " ".join(argv)
        want = expected["stream"].get(key)
        bad = []
        if got["exit"] != 0:
            bad.append(f"exit code {got['exit']}")
        if argv[0] == "enumerate":
            closed_form = OBJECT_COUNTS[argv[2]](int(argv[4]))
            if got["lines"] != closed_form:
                bad.append(f"{got['lines']} lines, closed form says {closed_form}")
        if want is None or got["sha256"] != want["sha256"] or got["lines"] != want["lines"]:
            bad.append("output digest differs from the recorded digest")
        if bad:
            failed += 1
            reasons.append(f"{key}: {'; '.join(bad)}")
    return attempted, failed, reasons


# -- metrics --------------------------------------------------------------------


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer ratios of two work counts of the same span: suffix -> (numerator, denominator).
COUNT_RATIOS = {
    "records_per_key": ("records", "keys"),
    "terms_out_per_pair": ("terms_out", "term_pairs"),
}


def layer_value(name: str, trace: dict) -> float:
    """One per-layer metric from a traced pass, read off the suffix of its name.

    ``<span>.s`` is inclusive seconds, ``<span>.self_s`` self seconds summed
    over the span and the spans named under it, ``<span>.calls`` calls,
    ``<span>.<x>_per_s`` objects yielded per inclusive second, a suffix in
    COUNT_RATIOS a ratio of two counts, and any other name a work count:
    the count of that name plus the counts ``<span>.*.<suffix>`` below it,
    so ``combinat.objects`` sums the objects of every enumerator.  A name
    the pass never reached reads 0.
    """
    totals = trace["totals"]
    counts = trace["counts"]
    span, _, suffix = name.rpartition(".")
    no_calls = (0, 0.0, 0.0)
    if suffix == "s":
        return totals.get(span, no_calls)[1]
    if suffix == "self_s":
        return sum(v[2] for k, v in totals.items() if k == span or k.startswith(span + "."))
    if suffix == "calls":
        return totals.get(span, no_calls)[0]
    if suffix.endswith("_per_s"):
        return _rate(counts.get(f"{span}.objects", 0), totals.get(span, no_calls)[1])
    if suffix in COUNT_RATIOS:
        numerator, denominator = COUNT_RATIOS[suffix]
        return _rate(counts.get(f"{span}.{numerator}", 0), counts.get(f"{span}.{denominator}", 0))
    return sum(v for k, v in counts.items()
               if k == name or (k.startswith(span + ".") and k.endswith("." + suffix)))


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    """Every per_layer metric that BENCHMARK.json names, with its unit."""
    m = {}
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        name = metric["name"]
        value = overhead_s if name == "trace.overhead_s" else layer_value(name, trace)
        m[name] = (value, metric["unit"])
    return m


# -- provenance -----------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD's commit; None when the checkout is not a git repository of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "normord").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


# -- main -----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "normord" / "cli.py").is_file():
        print(f"error: no normord sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    size = "smoke" if args.smoke else "full"
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "loadavg_before": loadavg(),
    }
    job = make_job(args.workload, args.seed, size)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        # Writes the bytecode caches, which users do not pay for on every run.
        setup_seconds(deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    reasons: list[str] = []
    passes: list[dict] = []

    def timed_pass(trace: bool) -> dict:
        nonlocal attempted, failed
        this = dict(job, trace=trace)
        if trace:
            this["run_id"] = stem
            this["spans"] = str(OUT / f"{stem}.spans.jsonl")
        report = run_pass(this, deadline)
        a, f, why = gate(this, report, expected)
        attempted += a
        failed += f
        reasons.extend(why)
        passes.append({"trace": trace, "ok": report["ok"], "wall_s": report["wall"],
                       "seconds": report["seconds"], "probe_rate": report.get("probe_rate"),
                       "maxrss_kib": report.get("maxrss_kib"), "failed": f})
        return report

    setup: list[tuple[float, float]] = []
    if args.trace:
        plain = timed_pass(False)
        traced = timed_pass(True)
        overhead = traced["seconds"] - plain["seconds"]
        metrics = layer_metrics(traced["trace"] if traced["ok"] else {"totals": {}, "counts": {}},
                                overhead)
    else:
        # Half the set-up starts come before the passes and half after, so
        # that the median spans the host's speed over the whole run.
        setup += [setup_seconds(deadline) for _ in range(SETUP_STARTS[size] // 2)]
        loop_start = time.monotonic()
        while True:
            report = timed_pass(False)
            now = time.monotonic()
            # Start another pass only if it should end within --seconds.
            if now - loop_start + report["wall"] > args.seconds or now + report["wall"] > deadline:
                break
        setup += [setup_seconds(deadline) for _ in range(SETUP_STARTS[size] - len(setup))]
        rss = [p["maxrss_kib"] for p in passes if p["maxrss_kib"] is not None]
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(*s) for s in setup), "s"),
            "pass_s": (statistics.median(p["seconds"] for p in passes), "s"),
            "peak_rss_mib": (statistics.median(rss) / 1024 if rss else 0.0, "MiB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }

    rates = [r for _, r in setup] + [p["probe_rate"] for p in passes if p["probe_rate"]]
    provenance["host_slowdown"] = (
        1 / (statistics.median(rates) * REFERENCE_PROBE_S) if rates else None)
    provenance["loadavg_after"] = loadavg()
    provenance["seconds"] = time.monotonic() - run_start
    record = {
        "provenance": provenance,
        "passes": passes,
        "setup_samples": [{"wall_s": w, "probe_rate": r} for w, r in setup],
        "failures": reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for reason in reasons:
        print(f"FAILED {reason}")
    alias = {"verify-full": "verify_s", "expand-deep": "expand_s", "cli-stream": "stream_s"}
    for name, (value, unit) in metrics.items():
        shown = f"{name} ({alias[args.workload]})" if name == "pass_s" else name
        print(f"{shown} = {value} {unit}")
    print(f"wall pass_s = {statistics.median(p['wall_s'] for p in passes)} s as measured, "
          f"host_slowdown = {provenance['host_slowdown']}")
    print(f"failure_ratio = {failed / attempted} ({failed} failed / {attempted} attempted, "
          f"{len(passes)} passes)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
