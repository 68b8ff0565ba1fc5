"""Fast self-test of the benchmark: ``python3 gatewaybench/selftest.py``.

Runs every workload at a tiny size, untraced and traced, with the
command, rates and metric list of BENCHMARK.json, and asserts that

- the run exits 0 and its output check passes (byte-identical responses,
  durable fingerprint after recovery);
- the last stdout line is the result object with exactly the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric names
  of BENCHMARK.json, each with its unit;
- the human-readable report prints ``failed_share`` and a consistent
  busy-time accounting;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the command fails without printing a result.

Takes a few seconds per workload and run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1.5"
TIMEOUT = 180


def _run(command: list, cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *command[1:], *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(failures)
            proc = _run(
                command, ROOT, "--workload", workload, "--seed", "7",
                "--seconds", SECONDS, "--trace", str(trace),
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            report = "\n".join(lines[:-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                failures.append(f"{label}: output check failed")
            if got != want:
                failures.append(f"{label}: metrics {got} != {want}")
            if trace == 0 and "failed_share" not in report:
                failures.append(f"{label}: report lacks failed_share")
            if trace == 1 and "busy-time accounting: consistent" not in report:
                failures.append(f"{label}: inconsistent layer split\n{report}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_state" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        workload = spec["workloads"][0]["name"]
        proc = _run(
            command, bare, "--workload", workload, "--seed", "1",
            "--seconds", SECONDS, "--trace", "0",
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append("bare directory: the command printed a result or exited 0")
        else:
            print("bare directory: fails without a result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
