"""One ``repro.serve`` server subprocess: spawn, set up, observe, stop."""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import IO, List, Optional, Tuple

from check import HEALTH
from speed import SERVER_CPU, pin

#: Seconds a server may take to print its port and answer set-up.
START_TIMEOUT = 60.0
#: Seconds a server may take to exit after SIGINT.
STOP_TIMEOUT = 30.0

_TICK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


def _stat_cpu(path: str) -> float:
    with open(path, encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


class ServerProcess:
    """A gateway server on an ephemeral port, pinned to ``SERVER_CPU``.

    Args:
        root: Checkout root (``src/`` goes on ``PYTHONPATH``).
        state_dir: ``--state-dir`` for a durable server, else ``None``.
        spans_path: Start through ``traced_server.py`` and write spans
            here at exit, else ``None`` for a plain ``python -m
            repro.serve``.
        log: File receiving the server's stderr.
    """

    def __init__(
        self,
        root: Path,
        state_dir: Optional[Path],
        spans_path: Optional[Path],
        log: IO[bytes],
    ) -> None:
        serve_args = ["--transport", "stdlib", "--port", "0"]
        if state_dir is not None:
            serve_args += ["--state-dir", str(state_dir)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            launcher = Path(__file__).with_name("traced_server.py")
            argv = [sys.executable, str(launcher), str(spans_path), *serve_args]
        env = dict(os.environ)
        # A fixed string-hash seed takes one source of per-process speed
        # variance (dict layouts) out of run-to-run comparisons.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(Path(__file__).parent)]
        )
        self.started_at = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            preexec_fn=lambda: pin(SERVER_CPU),
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            buffered = b""
            while True:
                left = START_TIMEOUT - (perf_counter() - self.started_at)
                if left <= 0 or not sel.select(left):
                    raise ServerError("server did not report its port in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError(f"server exited with {self.proc.wait()}")
                buffered += chunk
                for line in buffered.decode(errors="replace").splitlines():
                    if "listening on" in line:
                        return int(line.rsplit(":", 1)[1])

    def set_up(self, lines: List[bytes]) -> socket.socket:
        """Connect, send ``lines`` plus a ``health`` probe, await every answer.

        Returns the connection (non-blocking) for the measured pass; set-up
        time is ``self.setup_s``, from spawn to the answered probe.
        """
        sock = self._connect()
        sock.sendall(b"".join(lines) + HEALTH)
        buffered = b""
        while buffered.count(b"\n") < len(lines) + 1:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServerError("server closed the set-up connection")
            buffered += chunk
        self.setup_s = perf_counter() - self.started_at
        for response in buffered.splitlines():
            if not json.loads(response).get("ok"):
                raise ServerError(f"set-up request failed: {response!r}")
        sock.setblocking(False)
        return sock

    def connect(self) -> socket.socket:
        sock = self._connect()
        sock.setblocking(False)
        return sock

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=START_TIMEOUT)
        # Small paced writes must not wait for Nagle's algorithm.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def cpu_s(self) -> Tuple[float, float]:
        """User plus system CPU seconds so far: whole process, main thread."""
        pid = self.proc.pid
        return _stat_cpu(f"/proc/{pid}/stat"), _stat_cpu(f"/proc/{pid}/task/{pid}/stat")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode
