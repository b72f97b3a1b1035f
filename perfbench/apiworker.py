"""One worker process that runs public calls under a deadline.

The worker is forked from the benchmark process, so it inherits the
pre-generated inputs and any installed tracer; the parent sends only an
operation index.  Latency is timed inside the worker, around the call.  A
call that misses its deadline gets its worker killed and a fresh one forked,
so a runaway solve never overlaps the next call.  Fork is used because the
benchmark process starts no threads (BLAS is pinned to one thread) and a
fork keeps the restart cost far below the deadline.
"""

import multiprocessing
import time
import traceback

import spans

#: how long past the deadline the parent waits for a reply before killing.
GRACE_S = 0.5


class Outcome:
    __slots__ = ("status", "seconds", "value", "trace")

    def __init__(self, status, seconds, value=None, trace=None):
        self.status = status      # "ok", "deadline", "crashed" or an error type
        self.seconds = seconds    # in-worker latency, censored at the deadline
        self.value = value
        self.trace = trace


def _serve(conn, run_op, ops):
    while True:
        index = conn.recv()
        if index is None:
            break
        tracer = spans._ACTIVE
        if tracer is not None:
            tracer.reset()
        value = None
        start = time.perf_counter()
        try:
            value = run_op(ops[index])
            status = "ok"
        except Exception as exc:   # reported to the parent as the outcome
            status = type(exc).__name__
            value = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        conn.send(Outcome(status, seconds, value,
                          tracer.export() if tracer is not None else None))
    conn.close()


class DeadlineWorker:
    def __init__(self, run_op, ops, deadline_s: float):
        self._ctx = multiprocessing.get_context("fork")
        self._run_op, self._ops = run_op, ops
        self.deadline_s = deadline_s
        self.restarts = 0
        self._proc = self._conn = None
        self._start()

    def _start(self):
        parent, child = self._ctx.Pipe()
        self._proc = self._ctx.Process(target=_serve,
                                       args=(child, self._run_op, self._ops),
                                       daemon=True)
        self._proc.start()
        child.close()
        self._conn = parent

    def _replace(self):
        self._stop(kill=True)
        self._start()
        self.restarts += 1

    def call(self, index: int) -> Outcome:
        self._conn.send(index)
        if self._conn.poll(self.deadline_s + GRACE_S):
            try:
                out = self._conn.recv()
            except EOFError:              # the worker died mid-call
                self._replace()
                return Outcome("crashed", self.deadline_s)
            if out.seconds > self.deadline_s:
                out.status, out.seconds, out.trace = "deadline", self.deadline_s, None
                self._replace()
            return out
        self._replace()
        return Outcome("deadline", self.deadline_s)

    def _stop(self, kill: bool):
        if not kill:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                kill = True
            self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join()
        self._conn.close()

    def close(self):
        self._stop(kill=False)
