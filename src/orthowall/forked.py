"""The package's one way to run work in another process: :class:`Forked`."""

from __future__ import annotations

import os
import pickle
import signal


def _outcome(fn, args) -> tuple:
    try:
        return True, fn(*args)
    except Exception as exc:  # noqa: BLE001 - raised again by Forked.result
        return False, exc


class Forked:
    """``fn(*args)`` in a forked child (a solve's stage 1, a sweep member),
    which sends ``(True, value)`` or ``(False, exception)`` pickled through a
    pipe and leaves by ``os._exit``: no stdio flush, no exit hook.  A child
    that exits without a result is a ``lost`` error naming its wait status.
    A fork copies only the calling thread.  Where there is no fork, or
    ``os.pipe`` or ``os.fork`` raises ``OSError``, ``fn`` runs here, at once."""

    def __init__(self, fn, *args, lost: type[Exception] = RuntimeError):
        self.pid, self.outcome, self.lost = None, None, lost
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            pid = os.fork()
        except (AttributeError, OSError):  # AttributeError: the platform has no fork
            for fd in fds:
                os.close(fd)
            self.outcome = _outcome(fn, args)
            return
        if pid == 0:
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(_outcome(fn, args), pickle.HIGHEST_PROTOCOL))
                os._exit(0)
            finally:
                os._exit(1)  # reached only where the result could not be sent
        os.close(write_fd)
        self.pid, self.pipe = pid, open(read_fd, "rb")

    def result(self):
        """``fn``'s value, or its exception raised here; reaps the child."""
        if self.outcome is None:
            with self.pipe:
                data = self.pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            self.outcome = pickle.loads(data) if status == 0 and data else (False, self.lost(
                f"the forked child exited with wait status {status} and no result"))
        solved, value = self.outcome
        if not solved:
            raise value
        return value

    def kill(self) -> None:
        """Kill and reap the child if it has not been reaped."""
        if self.pid is not None:
            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
