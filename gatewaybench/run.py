"""Open-loop TCP benchmark of the admission gateway.

Usage (from the checkout root; the rates and the latency limit are the
ones fixed in BENCHMARK.json)::

    python3 gatewaybench/run.py --workload admit-inregion --seed 1 \\
        --seconds 16 --trace 0 --nominal-rps admit-inregion=9000,... \\
        --peak-rps admit-inregion=13500,... --latency-limit-ms 250

A run starts a ``python -m repro.serve --transport stdlib`` subprocess
and drives it from this single process, one connection per pipeline (at
most two).  The workload's line stream is sent in segments, each ended
by a ``drain`` line: a *saturation* segment sends as fast as the socket
takes the bytes, a *nominal* or *peak* segment sends on an exponential
schedule at that offered rate.  The segments rotate through several
rounds so every metric samples the whole run, not one stretch of it.

The server is pinned to one core whose speed is calibrated right before
each segment and spawn (speed.py).  Throughput and set-up times are
scaled to the reference speed by the core's speed at both ends; a rate
segment on a core slower than the reference offers the rate times its
speed factor and scales its latencies back, so a shared host slowing
down moves the figures much less than it moves raw wall-clock times.

``--trace 0`` reports the end-to-end metrics (the latencies and
``failed_share`` in the report only: on a shared host they follow the
time the host steals from the cores, README.md); ``--trace 1`` drives an
untraced and a traced server side by side and reports the per-layer
split (spans.py).  Every response is checked byte for byte against an
in-process replay (check.py).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Share of ``--seconds`` spent in each segment kind.
SHARES = {"saturation": 0.5, "nominal": 0.25, "peak": 0.25}
#: Saturation segments per round, each timed against the core's speed at
#: its two ends.
SATURATION_SPLIT = 4
#: Rounds of (saturation, nominal, peak) segments per run, so every
#: metric samples the whole run.
ROUNDS = 5
#: ``nominal`` is ~40% of the saturation throughput the rates were sized
#: on, so a saturation segment sends what that throughput clears in its
#: share of the run.
NOMINAL_LOAD = 0.4
#: Server spawns per ``--trace 0`` run in addition to the measured one;
#: ``setup_s`` is the median over all of them.
EXTRA_SETUPS = 6
#: A rate segment whose generator ran later than this at p99 is void.
LAG_BOUND_MS = 5.0

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "rss_mb": "MiB",
}
#: Printed in the report only: on a shared host, latency at a fixed rate
#: is set by how much time the host steals from the cores, which moved
#: from ~1% to over 30% between stretches of minutes (README.md).
REPORT_ONLY = {"lat_p50_ms": "ms", "lat_p99_ms": "ms", "lat_p99_ms.peak": "ms"}

PER_LAYER = {
    "protocol.frames_per_read": "count",
    "protocol.decode_us_per_line": "us",
    "protocol.encode_us_per_line": "us",
    "gateway.self_us_per_line": "us",
    "gateway.perline_share": "share",
    "batching.batch_size_mean": "count",
    "batching.queue_wait_ms.p50": "ms",
    "batching.queue_wait_ms.p99": "ms",
    "registry.bookkeeping_us_per_op": "us",
    "admission.us_per_task": "us",
    "admission.admit_share": "share",
    "locking.preview_us_per_task": "us",
    "journal.append_us": "us",
    "journal.executor_wait_us": "us",
    "journal.bytes_per_line": "B",
    "journal.compact_ms": "ms",
    "journal.compact_skipped_share": "share",
    "recovery.recover_s": "s",
    "server.cpu_share": "share",
    "server.other_us_per_line": "us",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.cpu_share": "share",
    "trace.overhead_share": "share",
}

Metrics = Dict[str, Tuple[float, int]]


def _rates(text: str) -> Dict[str, float]:
    pairs = (item.split("=", 1) for item in text.split(",") if item)
    return {name: float(value) for name, value in pairs}


def _pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Segments:
    """What one segment kind measured on one server, one entry per segment.

    Reported values are medians over segments, so one stretch of a busy
    machine moves them less than a pooled figure.
    """

    def __init__(self) -> None:
        #: Speed factor of each segment: the rate's pace, or for a
        #: saturation segment the core's speed at both of its ends.
        self.speeds: List[float] = []
        #: Share of the worse core's time the host stole during the segment.
        self.stolen: List[float] = []
        self.responses: List[int] = []
        self.seconds: List[float] = []
        #: Latencies, scaled to the reference speed (rate segments).
        self.latencies_s: List[np.ndarray] = []
        self.lags_s: List[np.ndarray] = []
        #: ``(connection, line)`` of responses slower than the latency limit.
        self.late: List[set] = []
        self.loadgen_cpu_s = 0.0
        self.windows: List[Tuple[float, float]] = []
        self.server_cpu_s = [0.0, 0.0]

    @property
    def total_responses(self) -> int:
        return sum(self.responses)


    def throughput_rps(self, scaled: bool = True) -> float:
        """Median over segments of responses per second, at the reference
        speed or (``scaled=False``) by the wall clock."""
        return statistics.median(
            r / s / (f if scaled else 1.0) if s else 0.0
            for r, s, f in zip(self.responses, self.seconds, self.speeds)
        )

    def latency_ms(self, q: float) -> float:
        """Median over rounds of the ``q``-th latency percentile."""
        return statistics.median(_pct(lat, q) * 1e3 for lat in self.latencies_s)

    def lag_p99_ms(self) -> float:
        return _pct(np.concatenate(self.lags_s) * 1e3, 99) if self.lags_s else 0.0

    def late_lines(self) -> set:
        return set().union(*self.late)


class Target:
    """One server, its connections, and every line sent to it so far."""

    def __init__(self, bench: "Bench", traced: bool) -> None:
        from serverproc import ServerProcess
        from speed import factor

        before = bench.calibrate()
        self.bench = bench
        bench.spawns += 1
        tag = f"{'traced' if traced else 'plain'}-{bench.spawns}"
        self.state_dir = bench.state / f"journal-{tag}" if bench.workload.durable else None
        self.spans_path = bench.state / f"spans-{tag}" if traced else None
        self.server = ServerProcess(ROOT, self.state_dir, self.spans_path, bench.log)
        self.socks = []
        try:
            self.socks.append(self.server.set_up(bench.streams.setup))
            self.socks += [self.server.connect() for _ in range(bench.workload.connections - 1)]
            # The server is idle once set up; time the core at both ends.
            self.setup_s = self.server.setup_s * factor(before + bench.calibrate())
        except BaseException:
            for sock in self.socks:
                sock.close()
            self.server.stop()
            raise
        conns = bench.workload.connections
        self.sent: List[List[bytes]] = [[] for _ in range(conns)]
        #: Per connection, how many stream lines have been sent.
        self.cursor = [0] * conns
        self.received = [bytearray() for _ in range(conns)]
        self.kinds: Dict[str, Segments] = {}
        self.rss_mb = 0.0
        self.recover_s = 0.0

    def segment(self, kind: str, round_index: int) -> None:
        """Send the next ``kind`` segment of the stream and await its answers.

        A rate segment runs in the server core's time scale when the core
        is slower than the reference: at speed factor ``f < 1`` it offers
        ``f`` times the rate and its latencies count ``f`` times their wall
        time.  A faster reading leaves the rate as it is: the core's speed
        jumps up for moments the server does not follow, and offering more
        then would only raise the latency it sees.  Every segment sends
        ``min(f, 1)`` times its lines, so it lasts as long at any speed.
        """
        from check import DRAIN
        from openloop import run_pass, schedule
        from speed import factor, stolen_s

        bench = self.bench
        before = bench.calibrate()
        conns = bench.workload.connections
        pace = min(factor(before), 1.0)
        seg = self.kinds.setdefault(kind, Segments())
        per_conn = int(bench.segment_lines[kind] * pace) // conns
        lines = []
        for c, stream in enumerate(bench.streams.conns):
            lines.append(list(stream[self.cursor[c] : self.cursor[c] + per_conn]) + [DRAIN])
            self.cursor[c] += per_conn
        times = None
        if kind != "saturation":
            rate = bench.rates[kind] * pace / conns
            rng = np.random.default_rng([bench.seed, round_index, int(kind == "peak")])
            times = [schedule(rng, len(ls), rate) for ls in lines]
        cpu0 = self.server.cpu_s()
        stolen0 = stolen_s()
        result = run_pass(self.socks, lines, times)
        stolen1 = stolen_s()
        cpu1 = self.server.cpu_s()
        # Throughput is scaled by the core's speed at both ends of the segment.
        seg.speeds.append(factor(before + bench.calibrate()) if times is None else pace)
        last = max((float(t[-1]) for t in result.recv_times if len(t)), default=0.0)
        seg.stolen.append(max(b - a for a, b in zip(stolen0, stolen1)) / max(last, 1e-3))
        seg.responses.append(result.responses)
        seg.seconds.append(last)
        seg.windows.append((result.start, result.start + last))
        seg.server_cpu_s[0] += cpu1[0] - cpu0[0]
        seg.server_cpu_s[1] += cpu1[1] - cpu0[1]
        seg.loadgen_cpu_s += result.cpu_s
        if times is not None:
            seg.lags_s.append(result.lag_s)
            lats = []
            late = set()
            for c in range(conns):
                lat = result.recv_times[c] - result.sched_times[c][: len(result.recv_times[c])]
                lat *= pace
                lats.append(lat)
                base = len(self.sent[c])
                late.update((c, base + int(i)) for i in np.flatnonzero(lat > bench.limit_s))
            seg.late.append(late)
            seg.latencies_s.append(np.concatenate(lats))
        for c in range(conns):
            self.sent[c] += lines[c]
            self.received[c] += result.received[c]

    def finish(self) -> Tuple[int, int, int]:
        """Stop the server and check every response.

        Returns ``(failed, late, mismatched)``: requests whose response is
        missing, wrong or an error; other requests answered slower than
        the latency limit; and output-check mismatches.
        """
        from check import failed_lines, recovered_fingerprint, reference
        from openloop import close_cleanly

        try:
            self.rss_mb = self.server.peak_rss_mb()
            tails = [close_cleanly(s) for s in self.socks]
        finally:
            for sock in self.socks:
                sock.close()
            code = self.server.stop()
        expected, fingerprint = reference(self.bench.streams.setup, self.sent)
        bad = {
            (c, i)
            for c in range(len(self.sent))
            for i in failed_lines(bytes(self.received[c]) + tails[c], expected[c])
        }
        mismatched = len(bad) + (code != 0)
        if self.state_dir is not None:
            recovered, self.recover_s = recovered_fingerprint(self.state_dir)
            mismatched += recovered != fingerprint
        late = set().union(*(seg.late_lines() for seg in self.kinds.values())) - bad
        return len(bad), len(late), mismatched

    @property
    def attempted(self) -> int:
        return sum(len(lines) for lines in self.sent)


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.rates = {
            "nominal": _rates(args.nominal_rps)[args.workload],
            "peak": _rates(args.peak_rps)[args.workload],
        }
        self.limit_s = args.latency_limit_ms / 1e3
        per_round = args.seconds / ROUNDS
        self.segment_lines = {
            "saturation": int(
                self.rates["nominal"] / NOMINAL_LOAD * SHARES["saturation"] * per_round
            ) // SATURATION_SPLIT,
            "nominal": int(self.rates["nominal"] * SHARES["nominal"] * per_round),
            "peak": int(self.rates["peak"] * SHARES["peak"] * per_round),
        }
        # Every server is sent the stream from its start, at most one
        # segment of each kind per round.
        self.streams = self.workload.build(
            self.seed,
            ROUNDS * sum(n * (SATURATION_SPLIT if k == "saturation" else 1)
                         for k, n in self.segment_lines.items()),
        )
        self.state = ROOT / ".bench_state" / f"{args.workload}-{args.seed}"
        shutil.rmtree(self.state, ignore_errors=True)
        self.state.mkdir(parents=True)
        self.log = open(self.state / "server.log", "ab")
        self.spawns = 0
        #: Calibration samples of the server's core (seconds per loop).
        self.samples: List[float] = []

    def calibrate(self) -> List[float]:
        """Time a few calibration loops on the server's core (speed.py)."""
        from speed import calibrate

        taken = calibrate()
        self.samples += taken
        return taken

    def speed_line(self) -> str:
        from speed import REFERENCE_S, SERVER_CPU, factor

        quartiles = statistics.quantiles(self.samples, n=4)
        return (
            f"server core {SERVER_CPU}: calibration loop quartiles "
            + "/".join(f"{q * 1e3:.2f}" for q in quartiles)
            + f" ms (n={len(self.samples)}), speed factor {factor(self.samples):.3f}; "
            f"times are scaled to the reference speed ({REFERENCE_S * 1e3:g} ms per loop)"
        )

    def close(self, show_log: bool) -> None:
        self.log.close()
        try:
            if show_log:
                log = (self.state / "server.log").read_text(errors="replace")
                print(f"server log (tail):\n{log[-4000:]}", file=sys.stderr)
        finally:
            shutil.rmtree(self.state, ignore_errors=True)
            try:
                self.state.parent.rmdir()
            except OSError:
                pass

    def setup_only(self) -> float:
        from serverproc import ServerProcess
        from speed import factor

        before = self.calibrate()
        state_dir = self.state / "journal-setup" if self.workload.durable else None
        server = ServerProcess(ROOT, state_dir, None, self.log)
        try:
            server.set_up(self.streams.setup).close()
            speed = factor(before + self.calibrate())
        finally:
            server.stop()
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)
        return server.setup_s * speed


def end_to_end(bench: Bench, report: List[str]) -> Tuple[Metrics, int, int, int]:
    target = Target(bench, traced=False)
    try:
        for r in range(ROUNDS):
            for kind in ["saturation"] * SATURATION_SPLIT + ["nominal", "peak"]:
                target.segment(kind, r)
    finally:
        failed, late, mismatched = target.finish()
    setups = [target.setup_s] + [bench.setup_only() for _ in range(EXTRA_SETUPS)]
    sat, nominal, peak = (target.kinds[k] for k in ("saturation", "nominal", "peak"))
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "throughput_rps": (sat.throughput_rps(), sat.total_responses),
        "rss_mb": (target.rss_mb, 1),
    }
    latency = {
        "lat_p50_ms": (nominal.latency_ms(50), nominal.total_responses),
        "lat_p99_ms": (nominal.latency_ms(99), nominal.total_responses),
        "lat_p99_ms.peak": (peak.latency_ms(99), peak.total_responses),
    }
    report.append(
        f"saturation: answered {sat.throughput_rps(scaled=False):.1f}/s by the wall clock"
    )
    for kind, seg in (("nominal", nominal), ("peak", peak)):
        lag = seg.lag_p99_ms()
        report.append(
            f"{kind:>10s}: offered {bench.rates[kind]:g}/s at the reference speed, answered "
            f"{seg.throughput_rps(scaled=False):.1f}/s by the wall clock, "
            f"{len(seg.late_lines())} slower than the limit, "
            f"host stole {statistics.median(seg.stolen):.1%} (median) and "
            f"{max(seg.stolen):.1%} (max) of a core, "
            f"loadgen lag p99 {lag:.3f} ms (validity bound {LAG_BOUND_MS:g} ms)"
            f"{' VOID' if lag > LAG_BOUND_MS else ''}"
        )
    report.append(
        f"failed_share {(failed + late) / target.attempted:.6f} share "
        f"(n={target.attempted}; {failed} error, missing or wrong, {late} slower than "
        f"the limit; the JSON's failed counts the first kind)"
    )
    for name, (value, samples) in latency.items():
        report.append(
            f"{name:<32s} {value:14.6g} {REPORT_ONLY[name]:<6s} n={samples} "
            f"(report only: host steal sets it)"
        )
    report.append(bench.speed_line())
    return metrics, target.attempted, failed, mismatched


def per_layer(bench: Bench, report: List[str]) -> Tuple[Metrics, int, int, int]:
    import spans

    plain = Target(bench, traced=False)
    try:
        traced = Target(bench, traced=True)
        try:
            for r in range(ROUNDS):
                for _ in range(SATURATION_SPLIT):
                    plain.segment("saturation", r)
                    traced.segment("saturation", r)
                traced.segment("nominal", r)
        finally:
            failed, _late, mismatched = traced.finish()
    finally:
        plain_failed, _plain_late, plain_mismatched = plain.finish()
    sat, nominal = traced.kinds["saturation"], traced.kinds["nominal"]
    assert traced.spans_path is not None
    split = spans.analyze(str(traced.spans_path), sat.windows, *sat.server_cpu_s)
    nsplit = spans.analyze(str(traced.spans_path), nominal.windows, *nominal.server_cpu_s)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    lines = split["lines"]
    tasks = split["tasks"]
    metrics = {
        "protocol.frames_per_read": (per(lines, split["reads"]), int(split["reads"])),
        "protocol.decode_us_per_line": (per(split["self_s.protocol.decode"], lines, 1e6), int(lines)),
        "protocol.encode_us_per_line": (per(split["self_s.protocol.encode"], lines, 1e6), int(lines)),
        "gateway.self_us_per_line": (per(split["self_s.gateway"], lines, 1e6), int(lines)),
        "gateway.perline_share": (per(split["perline_calls"], lines), int(lines)),
        "batching.batch_size_mean": (
            per(split["batched_tasks"], split["batches"]),
            int(split["batches"]),
        ),
        "batching.queue_wait_ms.p50": (nsplit["queue_wait_p50_ms"], int(nsplit["queue_waits"])),
        "batching.queue_wait_ms.p99": (nsplit["queue_wait_p99_ms"], int(nsplit["queue_waits"])),
        "registry.bookkeeping_us_per_op": (
            per(split["bookkeeping_s"], split["bookkeeping_ops"], 1e6),
            int(split["bookkeeping_ops"]),
        ),
        "admission.us_per_task": (per(split["self_s.admission"], tasks, 1e6), int(tasks)),
        "admission.admit_share": (per(split["admitted"], tasks), int(tasks)),
        "locking.preview_us_per_task": (per(split["locking_incl_s"], tasks, 1e6), int(tasks)),
        "journal.append_us": (per(split["append_s"], split["appends"], 1e6), int(split["appends"])),
        "journal.executor_wait_us": (
            per(split["self_s.journal.wait"], split["waits"], 1e6),
            int(split["waits"]),
        ),
        "journal.bytes_per_line": (
            per(split["journal_bytes"], split["appends"]),
            int(split["appends"]),
        ),
        "journal.compact_ms": (
            per(split["compact_s"], split["compactions_done"], 1e3),
            int(split["compactions_done"]),
        ),
        "journal.compact_skipped_share": (
            per(split["compactions"] - split["compactions_done"], split["compactions"]),
            int(split["compactions"]),
        ),
        "recovery.recover_s": (traced.recover_s, int(bench.workload.durable)),
        "server.cpu_share": (per(split["cpu_s"], split["wall_s"]), int(lines)),
        "server.other_us_per_line": (per(split["other_s"], lines, 1e6), int(lines)),
        "loadgen.lag_p99_ms": (nominal.lag_p99_ms(), nominal.total_responses),
        "loadgen.cpu_share": (
            per(nominal.loadgen_cpu_s, sum(e - s for s, e in nominal.windows)),
            nominal.total_responses,
        ),
        "trace.overhead_share": (
            1.0 - per(sat.throughput_rps(), plain.kinds["saturation"].throughput_rps()),
            sat.total_responses + plain.kinds["saturation"].total_responses,
        ),
    }
    report.append(
        f"layer split in us per line ({ROUNDS} traced saturation segments, "
        f"{int(lines)} lines; shape of DESIGN.md section 16.6):"
    )
    report += spans.split_table(split)
    errors = spans.accounting_errors(split)
    report.append(
        "busy-time accounting: "
        + ("; ".join(errors) if errors else "consistent within "
           f"{spans.ACCOUNTING_TOLERANCE:.0%} (layer self times + other = busy; "
           "event-loop thread CPU = busy - blocked wait)")
    )
    report.append(bench.speed_line())
    attempted = plain.attempted + traced.attempted
    return metrics, attempted, failed + plain_failed, mismatched + plain_mismatched


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload; print its report and, last, its JSON result."""
    bench = Bench(args)
    report = [
        f"gatewaybench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} latency limit {args.latency_limit_ms:g} ms"
    ]
    mismatched = -1
    try:
        if args.trace:
            metrics, attempted, failed, mismatched = per_layer(bench, report)
            units = PER_LAYER
        else:
            metrics, attempted, failed, mismatched = end_to_end(bench, report)
            units = END_TO_END
    finally:
        bench.close(show_log=mismatched != 0)
    report.append(
        "output check: "
        + ("every response byte-identical to the in-process replay" if not mismatched
           else f"FAILED ({mismatched} mismatches)")
    )
    for name, unit in units.items():
        value, samples = metrics[name]
        report.append(f"{name:<32s} {value:14.6g} {unit:<6s} n={samples}")
    print("\n".join(report))
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if mismatched == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nominal-rps", required=True, help="workload=rate,...")
    parser.add_argument("--peak-rps", required=True, help="workload=rate,...")
    parser.add_argument("--latency-limit-ms", type=float, required=True)
    args = parser.parse_args(argv)
    # Let ``finally`` blocks stop the server when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "serve" / "__main__.py").is_file():
        print(f"no repro.serve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from speed import LOADGEN_CPU, pin
    from workloads import WORKLOADS

    pin(LOADGEN_CPU)

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": n})) for n in names)

if __name__ == "__main__":
    sys.exit(main())
