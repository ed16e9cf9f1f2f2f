"""Benchmark of the cascadeho command line, one workload per run.

    python3 bench/run.py --workload autonomous --seed 1 --seconds 30 --trace 0

Run it from the root of a repository checkout; it imports ``cascadeho`` from
``src/`` there.  Set-up generates the workload's documents from the seed and
writes them under ``.bench_build/docs/``.  The run then drives
``cascadeho.cli.main(argv)`` in process as one closed-loop client (one
request at a time, no threads), in whole passes over the workload's request
list, until ``--seconds`` have passed and at least MIN_REQUESTS requests
were answered.  Every answer is checked against its closed form.

Before each request the run times ``reference_loop``, fixed pure-Python
work that does not touch cascadeho.  On a shared machine the speed of the
moment changes the time of a whole run by a third or more; dividing by the
reference time cancels that, so ``gens_per_ref`` moves only when cascadeho
does.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for the first half of ``--seconds`` (and at least MIN_REQUESTS
requests), then traced passes: the traced ones give the per-layer metrics
(see ``tracing.py``) and must print the same reports as the untraced ones,
which give the request times in seconds and the tracing overhead.  Spans
are written to ``.bench_build/spans/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HASH_SEED = "0"  # set iteration order drives the order of work in the library
TAIL = 0.70
MIN_REQUESTS = 40  # so that at least ten samples lie beyond the p70
# one round of set-up in a fresh interpreter: import, generate, write
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import cascadeho.cli
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - start)
"""
COMMANDS = ("validate", "nch", "egh", "chs1", "compare", "morphism")


def reference_loop(n: int = 6000):
    """Fixed interpreter work of the kind cascadeho does (rationals, dicts)."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, n):
        acc += Fraction(i % 7, i % 5 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


def _hygiene():
    """Re-execute with a fixed hash seed and without CASCADEHO_THREADS."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and (
        "CASCADEHO_THREADS" not in os.environ
    ):
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("CASCADEHO_THREADS", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env)


def _setup_seconds(src: Path, workload: str, seed: int, docs_dir: Path) -> float:
    """Time of one set-up round, measured inside a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(docs_dir)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(BENCH)])),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _exact(value, unit):
    """Counts are per-pass averages of identical passes: print them as ints."""
    if unit in ("count", "B") and float(value).is_integer():
        return int(value)
    return value


@dataclass
class Pass:
    seconds: float  # time spent answering requests
    ref_seconds: float  # time spent in reference_loop, once per request
    results: list  # (request, seconds, exit code, stdout)

    @property
    def gens(self) -> int:
        return sum(req.gens for req, *_ in self.results)


class Runner:
    """Closed-loop client: one request at a time, whole passes."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, tag="") -> Pass:
        """Answer every request once, each after one reference loop."""
        results = []
        ref_seconds = 0.0
        for i, req in enumerate(self.requests):
            t0 = perf_counter()
            reference_loop()
            ref_seconds += perf_counter() - t0
            if tracer is not None:
                tracer.request = f"{tag}:{i}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                try:
                    code = self.cli.main(req.argv)
                except Exception:  # a crash is a failed request, not a crashed run
                    traceback.print_exc()
                    code = None
                seconds = perf_counter() - t0
            results.append((req, seconds, code, buf.getvalue()))
        self._check(results)
        return Pass(sum(r[1] for r in results), ref_seconds, results)

    def _check(self, results):
        outputs = {}
        for req, _seconds, code, out in results:
            self.attempted += 1
            try:
                ok = code is not None and req.check(code, out, outputs)
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                self.failed += 1
                print(f"wrong answer (exit {code}): {req.key}", file=sys.stderr)
            outputs[req.key] = out


def _untraced_passes(runner, until, after_pass=None):
    """Whole passes until ``until`` and until MIN_REQUESTS samples exist."""
    passes = []
    while not passes or perf_counter() < until or (
        sum(len(p.results) for p in passes) < MIN_REQUESTS
    ):
        passes.append(runner.run_pass())
        if after_pass is not None:
            after_pass()
    return passes


def _throughput(passes):
    """Generators answered per second, and per reference-loop time."""
    gens = sum(p.gens for p in passes)
    seconds = sum(p.seconds for p in passes)
    reference = sum(p.ref_seconds for p in passes) / sum(len(p.results) for p in passes)
    return gens / seconds, gens / seconds * reference


def _end_to_end(passes, setup_s):
    _per_s, per_ref = _throughput(passes)
    return {
        "setup_s": (setup_s, "s"),
        "gens_per_ref": (per_ref, "1/ref"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _seconds_metrics(passes):
    """Untraced times in seconds; 0 for commands the workload does not issue."""
    samples = [(req.command, s) for p in passes for req, s, _c, _o in p.results]
    out = {
        "gens_per_s": (_throughput(passes)[0], "1/s"),
        "request_s.p50": (statistics.median(s for _c, s in samples), "s"),
        "request_s.p70": (_percentile([s for _c, s in samples], TAIL), "s"),
    }
    for command in COMMANDS:
        times = [s for c, s in samples if c == command]
        out[f"{command}_s.p50"] = (statistics.median(times) if times else 0.0, "s")
    return out


def _traced(runner, start, deadline, out_path, env):
    """Untraced passes for the first half of the time, then traced ones."""
    from tracing import Tracer, layer_metrics

    untraced = _untraced_passes(runner, (start + deadline) / 2)
    reports = [(c, o) for _r, _s, c, o in untraced[0].results]
    tracer = Tracer()
    traced = []
    mismatches = 0
    while not traced or perf_counter() < deadline:
        with tracer:
            traced.append(runner.run_pass(tracer, tag=str(len(traced))))
        mismatches += sum(
            report != (c, o)
            for report, (_r, _s, c, o) in zip(reports, traced[-1].results)
        )
    if mismatches:
        print(f"{mismatches} traced reports differ from untraced ones",
              file=sys.stderr)
    for key in tracer.missing:
        print(f"trace: {key} not found; its metrics read 0", file=sys.stderr)

    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.seconds / p.ref_seconds for p in traced)
        / statistics.median(p.seconds / p.ref_seconds for p in untraced) - 1, "1")
    metrics.update(_seconds_metrics(untraced))

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "traced_passes": len(traced),
                   "missing": tracer.missing,
                   "span_fields": ["name", "start", "end", "parent", "request"],
                   "spans": tracer.spans}, fh)
    env["traced_pass_s"] = [round(p.seconds, 3) for p in traced]
    return untraced, metrics, mismatches == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cascadeho" / "__init__.py").is_file():
        print(f"error: no cascadeho package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from cascadeho import cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    docs_dir = ROOT / ".bench_build" / "docs" / f"{args.workload}-seed{args.seed}"
    env = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "source_sha256": _source_digest(src),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "CASCADEHO_THREADS": os.environ.get("CASCADEHO_THREADS", "unset"),
    }
    runner = Runner(cli, workloads.build(args.workload, args.seed, str(docs_dir)))
    start = perf_counter()
    deadline = start + args.seconds
    identical = True
    if args.trace:
        spans = ROOT / ".bench_build" / "spans" / f"{args.workload}-seed{args.seed}.json"
        passes, metrics, identical = _traced(runner, start, deadline, spans, env)
    else:
        # a set-up round after every pass samples the machine's speed over
        # the whole run, not only at its start; each runs in a fresh process,
        # as a user's set-up would
        setup_rounds = []

        def set_up():
            setup_rounds.append(
                _setup_seconds(src, args.workload, args.seed, docs_dir))

        set_up()
        passes = _untraced_passes(runner, deadline, after_pass=set_up)
        metrics = _end_to_end(passes, statistics.median(setup_rounds))
    env["pass_s"] = [round(p.seconds, 3) for p in passes]
    env["pass_ref_s"] = [round(p.ref_seconds, 4) for p in passes]

    env["requests"] = runner.attempted
    print("# " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and identical,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": _exact(value, unit), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    _hygiene()
    sys.exit(main())
