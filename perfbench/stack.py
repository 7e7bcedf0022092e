"""The system under test as processes: ``repro-igp serve`` (v1 wire
service: sessions, WAL, LP) behind ``repro-igp gateway --proxy-port``
(HTTP), both started from the checkout's ``src/``.

A traced stack starts the same CLI through ``perfbench/launcher.py``,
which wraps each layer's entry points before ``repro.cli.main`` runs
and writes the spans when the process exits.
"""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().with_name("launcher.py")

#: Background checkpoint sweeps fire on a timer, so one landing inside a
#: timed window would make its counters depend on wall time.  The run
#: is shorter than this interval; checkpoints still happen on create,
#: eviction and shutdown.
CHECKPOINT_INTERVAL_S = "3600"
_BANNER_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0


class StackError(RuntimeError):
    """A server process failed to start or to stop."""


def child_env() -> dict[str, str]:
    """Environment of the server processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_TRACE_FILE", None)
    return env


class _Server:
    """One CLI process whose first stdout line is its ready banner."""

    def __init__(self, argv: list[str], banner: re.Pattern, log: Path) -> None:
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._ready = threading.Event()
        self._banner = banner
        self._match: re.Match | None = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if self._match is None:
                self._match = self._banner.search(line)
                if self._match is not None:
                    self._ready.set()
        self._ready.set()

    def wait_ready(self) -> re.Match:
        if not self._ready.wait(_BANNER_TIMEOUT_S) or self._match is None:
            raise StackError(
                f"{self.proc.args[1:4]} did not start; log: {self._log.name}"
            )
        return self._match

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(_STOP_TIMEOUT_S)
        self._log.close()
        return code


class Stack:
    """``serve`` plus ``gateway --proxy-port`` over one session root.

    ``spans_dir`` (traced stacks only) receives ``service.json`` and
    ``gateway.json`` span dumps when the processes exit.
    """

    def __init__(
        self,
        workdir: Path,
        *,
        resident: int | None = None,
        spans_dir: Path | None = None,
    ) -> None:
        self.workdir = workdir
        self.root = workdir / "sessions"
        self.resident = resident
        self.spans_dir = spans_dir
        self.service: _Server | None = None
        self.gateway: _Server | None = None
        self.port: int | None = None

    def _argv(self, role: str, args: list[str]) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "repro.cli", *args]
        spans = self.spans_dir / f"{role}.json"
        return [sys.executable, str(LAUNCHER), role, str(spans), *args]

    def start(self) -> int:
        """Spawn both servers; returns the gateway's HTTP port."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        serve = [
            "serve", "--root", str(self.root), "--port", "0",
            "--checkpoint-interval", CHECKPOINT_INTERVAL_S,
        ]
        if self.resident is not None:
            serve += ["--resident", str(self.resident)]
        self.service = _Server(
            self._argv("service", serve),
            re.compile(r" on [\w.]+:(\d+) \("),
            self.workdir / "service.log",
        )
        service_port = self.service.wait_ready().group(1)
        self.gateway = _Server(
            self._argv("gateway", ["gateway", "--port", "0", "--proxy-port", service_port]),
            re.compile(r"http://[\w.]+:(\d+) "),
            self.workdir / "gateway.log",
        )
        self.port = int(self.gateway.wait_ready().group(1))
        return self.port

    def stop(self) -> None:
        """SIGTERM the gateway, then the service (which checkpoints every
        session), and wait for both to exit."""
        servers = [s for s in (self.gateway, self.service) if s is not None]
        self.gateway = self.service = None
        codes = []
        try:
            for server in servers:
                codes.append(server.stop())
        finally:
            # Interrupted half-way: leave no server running.
            for server in servers:
                if server.proc.poll() is None:
                    server.proc.kill()
                    server.proc.wait()
        if any(code != 0 for code in codes):
            raise StackError(f"server exit codes {codes}; logs in {self.workdir}")

    def cpu_seconds(self) -> dict[str, float]:
        """User + system CPU seconds of each server process so far."""
        return {
            role: cpu_seconds(server.proc.pid)
            for role, server in (("service", self.service), ("gateway", self.gateway))
            if server is not None
        }

    def service_pid(self) -> int:
        return self.service.proc.pid


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise StackError(f"no VmHWM for pid {pid}")


def _fs_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path``."""
    path = path.resolve()
    best, best_type = "", None
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) and len(
            mount
        ) >= len(best):
            best, best_type = mount, parts[2]
    return best_type


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran
    this process when the run ended, to tell host drift from code
    change when two records differ."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[2]


def environment(session_root: Path) -> dict:
    """What a later diff needs to tell drift in the host from a change
    in the code."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "session_root_fs": _fs_type(session_root),
        "session_root_on_tmpfs": _fs_type(session_root) == "tmpfs",
        "blas_threads": {
            name: os.environ.get(name)
            for name in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
            )
        },
        "loadavg": os.getloadavg(),
        "host_loop_ms": host_loop_ms(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
