"""The chaos driver: pinned report bytes and every gate of every profile.

The golden hashes pin the rendered reports of the three CI gate runs
(``python -m repro.serve.loadgen --chaos ... --seed 0 --out f``) and the
stdout of ``python -m repro.faults --scenario all --seed 0``, whose
``serve_crash`` scenario runs the crash profile.  A change that moves a
single byte of any of them -- an RNG draw, an op, a counter, a field --
fails here.
"""

import copy
import dataclasses
import hashlib
import json

import pytest

from repro.faults.cli import main as faults_main
from repro.serve import chaos
from repro.serve.chaos import CHAOS_PROFILES, chaos_gate_failures, run_chaos
from repro.serve.fleet import InProcessWorker
from repro.serve.loadgen import main as loadgen_main

#: (profile, extra CLI args) -> sha256 of the ``--out`` report file.
GOLDEN_REPORTS = {
    ("crash", ("--cycles", "24")): (
        "1e5ba6d7c8cbcf749e9304c42d6cc3f17c0c2f66a1a00f45d02214d4a7ce31bd"
    ),
    ("fleet", ("--cycles", "12", "--workers", "3")): (
        "8c107b40c2717cc623d461fd8cc429a796220ba46e9123e111b79f8b403e2260"
    ),
    ("degradation", ("--cycles", "12")): (
        "f8c81c6a8c45e211dbcc6d618a205b1fedf2379679fce3239c8e1347385a9b01"
    ),
}

GOLDEN_FAULTS_STDOUT = (
    "fc35229677c94186a4b3e12aac0fff9a5505a73122e1673653e0140216b4b402"
)

#: The CI gate configuration of the one-worker profiles, as run_chaos
#: arguments.  The fleet profile's gates are trip-tested in
#: ``test_serve_fleet.TestFleetChaosGate``.
CI_RUNS = {
    "crash": {"cycles": 24},
    "degradation": {"cycles": 12},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenReports:
    @pytest.mark.parametrize(
        ("profile", "extra"),
        [pytest.param(*key, id=key[0]) for key in sorted(GOLDEN_REPORTS)],
    )
    def test_cli_report_bytes_are_pinned(self, tmp_path, capsys, profile, extra):
        out = tmp_path / "report.json"
        argv = ["--chaos", profile, *extra, "--seed", "0", "--out", str(out)]
        assert loadgen_main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
        assert _sha256(out.read_bytes()) == GOLDEN_REPORTS[(profile, extra)]

    def test_faults_scenario_stdout_is_pinned(self, capsys):
        assert faults_main(["--scenario", "all", "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert _sha256(stdout.encode("utf-8")) == GOLDEN_FAULTS_STDOUT

    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    def test_selftest_passes_with_its_summary_line(self, capsys, profile):
        extra = next(args for name, args in GOLDEN_REPORTS if name == profile)
        argv = ["--chaos", profile, *extra, "--seed", "0", "--selftest"]
        assert loadgen_main(argv) == 0
        line = capsys.readouterr().out
        assert line.startswith(f"selftest ok: chaos-{profile} seed=0 ")
        assert " lost=0 duplicated=0" in line


@pytest.fixture(scope="module")
def passing_reports():
    return {
        profile: run_chaos(profile, seed=0, **args)
        for profile, args in CI_RUNS.items()
    }


#: Gates every profile shares: (path into the report, bad value, needle).
SHARED_GATES = [
    (("admissions", "lost"), 1, "lost"),
    (("admissions", "duplicated"), 2, "double-counted"),
    (("admissions", "decision_mismatches"), 1, "changed their decision"),
    (("admissions", "response_mismatches"), 1, "response divergences"),
    (("admissions", "unresolved"), 1, "never acknowledged"),
    (("equivalence", "fingerprint_mismatches"), 1, "fingerprint mismatches"),
    (("equivalence", "final_identical"), False, "fingerprints differ"),
    (("recoveries", "count"), 1, "crash/recover cycles"),
    (("recoveries", "snapshot_loads"), 0, "compaction snapshot"),
]

#: Each one-worker profile's own coverage gates.
PROFILE_GATES = {
    "crash": [
        (("crashes", "torn"), 0, "'torn' was never exercised"),
        (("crashes", "after_journal"), 0, "'after_journal' was never exercised"),
        (("crashes", "after_apply"), 0, "'after_apply' was never exercised"),
        (("crashes_with_pending_batch",), 0, "batch was pending"),
        (("stall_retries",), 0, "stall retries"),
        (("contended_admits",), 0, "locking pipeline"),
    ],
    "degradation": [
        (("degradation", "region_violations"), 1, "region violations"),
        (("degradation", "rescales"), 0, "rescale"),
        (("degradation", "sacrificed"), 0, "sacrifice"),
        (("degradation", "confirmed_drops"), 0, "drop was confirmed"),
        (("degradation", "confirmed_restores"), 0, "restore was confirmed"),
        (("waves", "drops"), 0, "drop wave"),
        (("waves", "outages"), 0, "full-outage"),
        (("waves", "restores"), 0, "restore wave"),
        (("crashes", "torn"), 0, "'torn' was never exercised"),
        (("crashes", "after_journal"), 0, "'after_journal' was never exercised"),
        (("crashes", "after_apply"), 0, "'after_apply' was never exercised"),
        (("snapshot_upgrade", "restored"), False, "snapshot upgrade"),
        (("stall_retries",), 0, "stall retries"),
    ],
}

GATE_CASES = [
    pytest.param(profile, path, value, needle, id=f"{profile}-{'.'.join(path)}")
    for profile in sorted(CI_RUNS)
    for path, value, needle in SHARED_GATES + PROFILE_GATES[profile]
]


class TestGates:
    @pytest.mark.parametrize(("profile", "path", "value", "needle"), GATE_CASES)
    def test_each_gate_trips_on_its_own_violation(
        self, passing_reports, profile, path, value, needle
    ):
        report = copy.deepcopy(passing_reports[profile])
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        failures = chaos_gate_failures(report)
        assert any(needle in failure for failure in failures), failures

    def test_min_recoveries_defaults_to_the_profile_bar(self, capsys):
        report = run_chaos("crash", seed=0, cycles=4)
        assert report["recoveries"]["count"] == 4
        failures = chaos_gate_failures(report)
        assert any("need >= 20 recoveries" in f for f in failures)
        assert not any("recoveries" in f for f in chaos_gate_failures(report, 4))
        # The CLI caps the bar at the cycles it was asked to run (four
        # cycles still miss coverage gates, so the run itself fails).
        assert loadgen_main(["--chaos", "crash", "--cycles", "4", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gate FAILED: ") and "need >=" not in err

    def test_unknown_report_format_is_refused(self, passing_reports):
        report = dict(passing_reports["crash"], format="repro.serve.other/1")
        with pytest.raises(ValueError, match="not a chaos report"):
            chaos_gate_failures(report)


class TestRunChaos:
    def test_unknown_profile_is_refused(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            run_chaos("meteor")

    @pytest.mark.parametrize(
        ("profile", "args", "message"),
        [
            ("crash", {"cycles": 0}, "cycles must be >= 1"),
            ("crash", {"ops_per_cycle": 1}, "ops_per_cycle must be >= 2"),
            ("degradation", {"cycles": 1}, "cycles must be >= 2"),
            ("degradation", {"ops_per_cycle": 3}, "ops_per_cycle must be >= 4"),
            ("fleet", {"ops_per_cycle": 3}, "ops_per_cycle must be >= 4"),
        ],
    )
    def test_profile_bounds_are_enforced(self, profile, args, message):
        with pytest.raises(ValueError, match=message):
            run_chaos(profile, **args)

    def test_fleet_only_arguments_are_refused_elsewhere(self):
        with pytest.raises(TypeError):
            run_chaos("crash", cycles=1, workers=3)

    def test_state_dir_is_kept_when_given(self, tmp_path):
        run_chaos("crash", seed=0, cycles=2, state_dir=tmp_path)
        assert (tmp_path / "fleet" / "worker-0").is_dir()
        # The one-worker shadow is an in-memory gateway: nothing on disk.
        assert not (tmp_path / "shadow").exists()
        run_chaos("fleet", seed=0, cycles=2, workers=2, state_dir=tmp_path / "f")
        assert (tmp_path / "f" / "shadow" / "worker-1").is_dir()

    @pytest.mark.parametrize("profile", sorted(CI_RUNS))
    def test_shadow_does_not_share_the_durable_stack(self, monkeypatch, profile):
        """A fault every durable worker shares must still show up.

        The one-worker profiles compare against a plain in-memory
        gateway; a bug in the durable/shard layers that drops a response
        would pass unnoticed against a shadow built from the same layers.
        """
        handle_line = InProcessWorker.handle_line

        def swallow_expire(worker, line):
            responses = handle_line(worker, line)
            return [] if json.loads(line).get("op") == "expire" else responses

        monkeypatch.setattr(InProcessWorker, "handle_line", swallow_expire)
        failures = chaos_gate_failures(run_chaos(profile, seed=0, cycles=4), 4)
        assert any("response divergences" in f for f in failures), failures

    def test_fleet_cycle_without_a_kill_raises(self, monkeypatch):
        """An explicit error, not an assert that ``python -O`` strips."""
        build = chaos._build_schedule

        def no_kills(*args):
            return dataclasses.replace(build(*args), kills=())

        monkeypatch.setattr(chaos, "_build_schedule", no_kills)
        with pytest.raises(RuntimeError, match="without a worker kill"):
            run_chaos("fleet", seed=0, cycles=2, workers=2)
