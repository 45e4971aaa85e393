"""thermoq benchmark: seeded CLI workloads timed end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload campaign_paper --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
start of a fresh interpreter that imports ``thermoq.cli`` and loads the
workload's config), ``pass_s`` (median wall time of one pass of the
workload through ``thermoq.cli.main``, after one warm-up pass) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer figures from the traced ones (see ``tracer.py``) plus the
tracing overhead.  Diagnostics (fail ratio, tail pass time, CPU time,
throughput, provenance) are printed above the result, which is the last
line of standard output: one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workload runs inside this single process, one invocation after
another; the only other processes are the cold starts, run one at a time.
Every output is checked (see ``workloads.py``); an operation that exits
non-zero or whose outputs fail a check counts as failed.  Scratch files go
to ``.bench_work/`` at the repository root and are removed at exit, except
the span file of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The LM solves are 3x3: BLAS worker threads would only add noise on a
# small machine, so NumPy gets one thread, in the cold starts as well.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The program must see only the generated inputs, and a pinned report
# timestamp makes report.json byte-identical from pass to pass.
os.environ.pop("THERMOQ_SEED", None)
os.environ["THERMOQ_TIMESTAMP"] = "2000-01-01T00:00:00+00:00"

import tracer      # noqa: E402
import workloads   # noqa: E402

SETUP_RUNS = 7     # fewest cold starts measured
MIN_PASSES = 4     # measured passes, whatever --seconds says
SETUP_CODE = ("import sys, thermoq.cli, thermoq.config; "
              "thermoq.config.load_config(sys.argv[1])")

UNITS = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "cpu_s": "s", "items_per_s": "1/s", "trace_overhead": "ratio",
    "traced_pass_s": "s",
    "experiments.gap_ratio": "ratio",
    "cli.build_parser.self_s": "s",
    "fitting.least_squares.iterations": "count",
    "fitting.least_squares.fail_ratio": "ratio",
    "spectral.fit_knee_spectrum.lm_calls": "count",
    "io.rows_written": "count", "io.rows_read": "count",
    "io.bytes_written": "B", "io.bytes_read": "B",
    **{f"{m}.self_share": "ratio" for m in tracer.MODULES},
    **{f"{m}.calls": "count" for m in tracer.MODULES},
}


class Checker:
    """Counts operations and failures; checks each new output digest once.

    The first pass fixes each invocation's reference digest.  Later passes
    must reproduce it, so the content checks run once per digest.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reference = {}
        self._verdicts = {}

    def count(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED: {problem}", file=sys.stderr)

    def record(self, index: int, invocation, code) -> None:
        self.count(self._problem(index, invocation, code))

    def _problem(self, index, invocation, code):
        label = f"{invocation.argv[0]} #{index}"
        if code != 0:
            return f"{label}: exit code {code}"
        digest = invocation.digest()
        if digest is None:
            return f"{label}: an output is missing"
        if self._reference.setdefault(index, digest) != digest:
            return f"{label}: outputs differ from the first pass"
        if (index, digest) not in self._verdicts:
            try:
                invocation.check(invocation.out_dir)
                verdict = None
            except Exception as exc:  # any failing check is a failed output
                verdict = f"{label}: {type(exc).__name__}: {exc}"
            self._verdicts[index, digest] = verdict
        return self._verdicts[index, digest]


def _invoke(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would exit 1 with this traceback
        traceback.print_exc()
        return 1


def _one_pass(cli, workload, active_tracer):
    for invocation in workload.invocations:
        invocation.clean()
    if active_tracer is not None:
        active_tracer.install()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        codes = [_invoke(cli, inv.argv) for inv in workload.invocations]
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if active_tracer is not None:
            active_tracer.uninstall()
    return wall, cpu, codes


def _cold_starter(workload, checker):
    """Return a function timing one fresh interpreter importing the CLI."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", SETUP_CODE, str(workload.setup_config)]

    def cold_start() -> float:
        start = time.perf_counter()
        proc = subprocess.run(command, env=env, cwd=ROOT, timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        checker.count(None if proc.returncode == 0 else
                      f"cold start exited {proc.returncode}: "
                      f"{proc.stderr.decode(errors='replace')[-300:]}")
        return elapsed
    return cold_start


def _gap_ratio(workload) -> float:
    """n_gaps / n_points of the campaign; 0 without one or if it failed."""
    if workload.summary is None:
        return 0.0
    try:
        summary = json.loads(workload.summary.read_text(encoding="utf-8"))
        return summary["n_gaps"] / summary["n_points"]
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return 0.0


def _measure(cli, workload, checker, seconds, layer_tracer, cold_start,
             after_pass):
    """Warm up once, then run passes until ``seconds`` have elapsed.

    Returns (untraced passes, traced passes, spans, cold starts); a pass is
    (wall_s, cpu_s, per-layer figures or None).  With a tracer, passes
    alternate untraced and traced, starting untraced.  With ``cold_start``,
    one cold start follows each timed pass, so that set-up and passes
    sample the same stretch of machine load.
    """
    plain, traced, spans, setup = [], [], [], []
    if cold_start is not None:
        cold_start()  # compiles bytecode on a fresh checkout; not measured
    start = None
    number = 0
    while True:
        use_tracer = layer_tracer if number % 2 == 0 and number > 0 else None
        gc.collect()
        wall, cpu, codes = _one_pass(cli, workload, use_tracer)
        figures = None
        if use_tracer is not None:
            pass_spans = use_tracer.take()
            figures = tracer.summarize(pass_spans, wall)
            figures["experiments.gap_ratio"] = _gap_ratio(workload)
            spans.extend([number, *span] for span in pass_spans)
        if after_pass is not None:
            after_pass(number, workload)
        for index, (invocation, code) in enumerate(
                zip(workload.invocations, codes)):
            checker.record(index, invocation, code)
        number += 1
        if start is None:  # the warm-up pass is checked but not timed
            start = time.perf_counter()
            continue
        (traced if figures else plain).append((wall, cpu, figures))
        if cold_start is not None:
            setup.append(cold_start())
        if (len(plain) + len(traced) >= MIN_PASSES
                and (cold_start is None or len(setup) >= SETUP_RUNS)
                and time.perf_counter() - start >= seconds):
            return plain, traced, spans, setup


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _tail(values):
    """Highest percentile with at least ten passes beyond it, or None."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "thermoq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _why(name):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name),
                None)


def _provenance(name, size, plain, traced):
    import numpy
    return {
        "workload": name, "why": _why(name), "size": size,
        "passes": len(plain) + len(traced), "traced_passes": len(traced),
        "warmup_passes": 1, "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _line(name, value, note=""):
    unit = UNITS.get(name, "")
    print(f"{name:38s} {value:14.6g} {unit:6s} {note}")


def run(name, seed, seconds, trace, size="full", after_pass=None) -> dict:
    """Run one workload and return the result object (also printed)."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, work, size)
        checker = Checker()
        cold_start = None if trace else _cold_starter(workload, checker)
        from thermoq import cli
        layer_tracer = tracer.Tracer() if trace else None
        plain, traced, spans, setup = _measure(
            cli, workload, checker, seconds, layer_tracer, cold_start,
            after_pass)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [p[0] for p in plain]
    pass_s = statistics.median(walls)
    cpu_s = statistics.median(p[1] for p in plain)
    print(f"workload {name}  seed {seed}  size {size}  trace {trace}")
    metrics = {}
    if trace:
        traced_walls = [p[0] for p in traced]
        for key in traced[0][2]:
            metrics[key] = statistics.median(p[2][key] for p in traced)
        metrics["cpu_s"] = cpu_s
        metrics["items_per_s"] = workload.items / pass_s
        metrics["traced_pass_s"] = statistics.median(traced_walls)
        metrics["trace_overhead"] = metrics["traced_pass_s"] / pass_s
        for key in sorted(metrics):
            _line(key, metrics[key], f"median of {len(traced)} traced passes"
                  if key in traced[0][2] else "")
        spans_path = WORK / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            [[n, s[0], s[1], s[2], s[3], getattr(s[4], "__name__", s[4])]
             for n, *s in spans]), encoding="utf-8")
        print(f"spans of {len(traced)} traced passes written to {spans_path}")
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["pass_s"] = pass_s
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        q1, q3 = _quartiles(setup)
        _line("setup_s", metrics["setup_s"],
              f"median of {len(setup)} cold starts, IQR {q1:.4g}-{q3:.4g}")
        q1, q3 = _quartiles(walls)
        _line("pass_s", pass_s, f"median of {len(walls)} passes after 1 "
              f"warm-up, IQR {q1:.4g}-{q3:.4g}")
        tail = _tail(walls)
        if tail is None:
            print(f"{'pass_s_tail':38s} {'n/a':>14s} {'s':6s} diagnostic: "
                  f"needs 11 passes, have {len(walls)}")
        else:
            _line("pass_s_tail", tail[1], f"diagnostic: p{tail[0]:.0f} of "
                  f"{len(walls)} passes")
        print("pass times (s): " + " ".join(f"{w:.4f}" for w in walls))
        _line("peak_rss_mb", metrics["peak_rss_mb"], "whole process")
        _line("cpu_s", cpu_s, "diagnostic: median CPU seconds per pass")
        _line("items_per_s", workload.items / pass_s,
              f"diagnostic: {workload.items} {workload.item_unit} per pass")
    print(f"{'fail_ratio':38s} {checker.failed / checker.attempted:14.6g} "
          f"{'ratio':6s} {checker.failed} of {checker.attempted} operations")
    print("provenance " + json.dumps(_provenance(name, size, plain, traced)))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermoq" / "cli.py").is_file():
        print(f"error: no thermoq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
