"""The progress service as a subprocess: spawn, wait ready, observe, stop.

The server is started exactly as a user would start it —
``python -m repro ... serve --port 0`` — so its CPU and memory are its
own and never share an interpreter lock with the client being timed. The
port is parsed from the ``listening on host:port`` line the CLI prints on
stderr (no fixed ports); stderr goes to a file in the caller's temp
directory, so a chatty server can never block on a full pipe.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

from repro.server.client import ProgressClient, ServiceError

__all__ = ["SERVER_FLAGS", "ServerProcess", "cpu_seconds", "rss_kb"]

#: The load shape every workload serves under (2 workers = nproc).
SERVER_FLAGS = ("--workers", "2", "--quantum", "512")
TICK = 2000
SKEW = 1.0

_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SRC = Path(__file__).resolve().parents[2] / "src"


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` so far, from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # comm may contain spaces and parentheses: fields resume after the last ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def rss_kb(pid: int | str, field: str = "VmHWM") -> int:
    """``VmHWM`` (peak) or ``VmRSS`` (current) of ``pid`` in KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


class ServerProcess:
    """One ``repro serve`` subprocess; use as a context manager."""

    def __init__(
        self,
        sf: float,
        seed: int,
        tmp_dir: Path,
        ready_timeout_s: float = 60.0,
    ):
        self.client: ProgressClient | None = None
        self._stderr_path = tmp_dir / f"server-{time.monotonic_ns()}.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        # generate_tpch draws its Zipf streams from hash(label): the server
        # must hash like the bench process for the catalogs to be identical.
        env["PYTHONHASHSEED"] = "0"
        argv = [
            sys.executable, "-m", "repro",
            "--sf", str(sf), "--skew", str(SKEW), "--seed", str(seed),
            "--sample", "0", "--tick", str(TICK),
            "serve", "--port", "0", *SERVER_FLAGS,
        ]  # fmt: skip
        with open(self._stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )  # fmt: skip
        try:
            host, port = self._await_listening(time.monotonic() + ready_timeout_s)
            self.client = ProgressClient(host, port, timeout=60.0)
            self._await_ping(time.monotonic() + ready_timeout_s)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _stderr_tail(self) -> str:
        return self._stderr_path.read_text(errors="replace")[-2000:]

    def _await_listening(self, deadline: float) -> tuple[str, int]:
        while True:
            match = _LISTENING.search(self._stderr_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before listening:\n"
                    + self._stderr_tail()
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    "server did not report a port in time:\n" + self._stderr_tail()
                )
            time.sleep(0.005)

    def _await_ping(self, deadline: float) -> None:
        while True:
            try:
                if self.client.ping():
                    return
            except ServiceError:
                pass
            if time.monotonic() >= deadline:
                raise TimeoutError("server never answered ping")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def rss_kb(self, field: str = "VmHWM") -> int:
        return rss_kb(self.pid, field)

    def stop(self, timeout_s: float = 15.0) -> None:
        """Ask the server to shut down, wait for it, kill it on timeout."""
        if self.proc.poll() is not None:
            return
        try:
            if self.client is None:
                raise ServiceError("connection", "server never became reachable")
            self.client.shutdown_server()
            self.proc.wait(timeout=timeout_s)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
