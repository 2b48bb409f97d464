"""The server under test as its own process tree, started through the
public ``repro gateway`` command line, and the wire connection the load
generator speaks to it.

Nothing here sets thread environment variables: the server inherits the
environment as found, so BLAS oversubscription on a small host stays
visible in the numbers.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.gateway.protocol import (FrameError, encode_frame, recv_frame,
                                    request_frame, send_frame)

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+) ")


class ServerError(RuntimeError):
    """The server died, never listened, or refused the set-up."""


class GatewayConn:
    """One TCP connection to the gateway.

    ``call`` is a blocking request/reply for control ops (attach, stats,
    shutdown); ``send``/``recv`` are the split halves the load generator
    drives from two threads, many ingests in flight.
    """

    def __init__(self, address: tuple[str, int], timeout: float):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_control_id = -1
        self._closed = False

    def call(self, op: str, **fields) -> dict:
        request_id = self._next_control_id
        self._next_control_id -= 1
        send_frame(self._sock, request_frame(op, request_id, **fields))
        reply = recv_frame(self._sock)
        if reply is None:
            raise ServerError(f"gateway closed the connection during {op!r}")
        if not reply.get("ok"):
            raise ServerError(f"{op!r} refused: {reply.get('error')}")
        return reply

    def attach(self, streams: list[str]) -> None:
        """Attach every stream; the windows then travel as binary frames,
        which the server must advertise."""
        for stream in streams:
            reply = self.call("attach", stream=stream)
            if "binary" not in (reply.get("codecs") or ()):
                raise ServerError("gateway does not offer binary frames")

    def send(self, request) -> int:
        fields = {"stream": request.stream, "windows": request.windows}
        if request.trace is not None:
            fields["trace"] = request.trace
        frame = encode_frame(request_frame(request.op, request.id, **fields),
                             codec="binary")
        self._sock.sendall(frame)
        return len(frame)

    def recv(self) -> dict | None:
        try:
            return recv_frame(self._sock)
        except FrameError as exc:   # a corrupt stream cannot be resynced
            raise ConnectionError(f"bad frame from gateway: {exc}") from None

    def set_timeout(self, seconds: float) -> None:
        """Bound every later send and receive (a stalled server then
        surfaces as an error instead of a hang)."""
        self._sock.settimeout(seconds)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class ServerProcess:
    """``repro gateway`` in its own session, so the whole tree (shard
    workers included) can be measured and, if it hangs, killed."""

    def __init__(self, args: list[str], workdir: Path, source: Path):
        self.args = args
        self.workdir = workdir
        self.log_path = workdir / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # The "listening" line must not sit in a stdout buffer.
        env["PYTHONUNBUFFERED"] = "1"
        self._env = env
        self.proc: subprocess.Popen | None = None
        self.launched_at = 0.0

    def start(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            self.launched_at = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "gateway", "--port", "0",
                 *self.args],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=self._env, start_new_session=True)

    def wait_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = _LISTENING.search(self.log_tail())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode}"
                                  f" before listening:\n{self.log_tail()}")
            time.sleep(0.005)
        raise ServerError(f"server not listening after {timeout:.0f} s:\n"
                          f"{self.log_tail()}")

    def log_tail(self, limit: int = 4000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-limit:]
        except FileNotFoundError:
            return ""

    def tree(self) -> list[int]:
        """The server's pid and every live descendant's."""
        parents: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry))
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(parents.get(pid, ()))
        return found

    def peak_rss_mb(self) -> float:
        """Sum of peak resident set sizes (VmHWM) over the process tree."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, address: tuple[str, int], timeout: float) -> bool:
        """Ask the server to drain and exit, then kill whatever is left of
        the tree (a resource tracker, or a server that would not drain).
        Returns whether the server exited cleanly within ``timeout``."""
        try:
            conn = GatewayConn(address, timeout=timeout)
            try:
                conn.call("shutdown")
            finally:
                conn.close()
        except (OSError, ServerError):
            pass
        try:
            clean = self.proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            clean = False
        self.kill()
        return clean

    def kill(self) -> None:
        """SIGKILL the whole session and reap the server."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
