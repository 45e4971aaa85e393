"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

For every workload it runs the tiny inputs untraced and traced and checks
that each metric named in BENCHMARK.json is emitted with its unit and a
finite value, and that the run is correct.  It then corrupts outputs in two
ways and checks that each raises the failure count above 0:

- ``content``: every pass replaces numbers in an output with null or NaN
  and re-hashes it in report.json, so the outputs still agree from pass to
  pass and only the content checks can see it;
- ``drift``: one timed pass appends a byte, so only the pass-to-pass
  comparison can see it.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys

import run
import workloads

SEED = 3
SECONDS = 0.2


def _poison(number, workload):
    invocation = workload.invocations[-1]
    path = invocation.files()[0]
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({
            k: None if isinstance(v, float) else v for k, v in payload.items()}))
    else:
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
    report_path = invocation.out_dir / "report.json"
    report = json.loads(report_path.read_text())
    for entry in report["outputs"]:
        if entry["path"] == path.name:
            entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    report_path.write_text(json.dumps(report))


def _append(number, workload):
    if number == 2:
        path = workload.invocations[0].files()[0]
        path.write_bytes(path.read_bytes() + b"\n")


def _run(name, trace, after_pass=None):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return run.run(name, SEED, SECONDS, trace, size="tiny",
                       after_pass=after_pass)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(name, trace)
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace {trace}: {result['failed']} of "
                              f"{result['attempted']} operations failed")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in spec[key]}:
                errors.append(f"{name} trace {trace}: metrics "
                              f"{sorted(metrics)} != BENCHMARK.json {key}")
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] \
                        or not math.isfinite(got["value"]):
                    errors.append(f"{name}: {m['name']} is {got}, "
                                  f"expected a finite value in {m['unit']}")
        for kind, hook in (("content", _poison), ("drift", _append)):
            result = _run(name, 1, after_pass=hook)
            if result["failed"] == 0 or result["correct"]:
                errors.append(f"{name}: {kind} corruption went unnoticed")
        print(f"{name}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
