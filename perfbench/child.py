"""Workload process: one pass over the instance pool (three when traced).

Reads one JSON job from stdin. Writes one JSON line per operation
(``{"i": instance, "t": seconds, "c": calibration before it, "err": kind or
null}``), one ``{"ans": ...}``
line the first time each instance completes, and a final ``{"done": ...}``
line. An operation longer than ``TICK_S`` also carries ``"ticks"``, the
calibrations taken inside it. The address-space cap is set here, so it binds
this process only.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

import calibration  # next to this script, so on the path when it runs

AS_CAP_BYTES = 2 << 30
TICK_S = 0.25


class Ticker:
    """Calibrations taken every ``TICK_S`` inside one operation.

    SIGALRM runs the calibration loop in this thread between bytecodes, so it
    sees the host's speed while the operation runs. The loop's own time is
    left out of the operation's time and of the tick offsets.
    """

    def __init__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.ticks: list[tuple[float, float]] = []
        self.start = self.taken = 0.0
        self.active = False

    def _tick(self, signum, frame) -> None:
        if not self.active:  # a signal still pending when the operation ended
            return
        begin = time.perf_counter()
        c = calibration.calibrate()
        self.ticks.append((begin - self.start - self.taken, c))
        self.taken += time.perf_counter() - begin

    def begin(self) -> None:
        self.ticks, self.taken, self.active = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.start = time.perf_counter()

    def end(self) -> float:
        """Seconds since ``begin``, the calibrations left out."""
        elapsed = time.perf_counter() - self.start - self.taken
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return elapsed


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def failure_kind(exc: BaseException) -> str:
    from mixedcolor.errors import BudgetExceeded, CapExceeded

    for kind in (BudgetExceeded, CapExceeded, MemoryError, RecursionError):
        if isinstance(exc, kind):
            return kind.__name__
    return f"other:{type(exc).__name__}"


def run_pass(texts, operation, summarize, answers, mismatched, runner, deadline=None):
    """One pass over the pool, cut short at ``deadline``.

    Returns the operation times, the calibrations taken before each
    operation and after the last one, and the ticks inside each operation.
    """
    times, calibrations, ticks = [], [], []
    ticker = Ticker()
    for i, text in enumerate(texts):
        if deadline is not None and time.perf_counter() > deadline:
            break
        calibrations.append(calibration.calibrate())
        err = None
        ticker.begin()
        try:
            result = runner(operation, text)
        except Exception as exc:  # every failure kind is counted, none ends the run
            err = failure_kind(exc)
        elapsed = ticker.end()
        times.append(elapsed)
        ticks.append(ticker.ticks)
        record = {"i": i, "t": elapsed, "c": calibrations[-1], "err": err}
        if ticker.ticks:
            record["ticks"] = ticker.ticks
        emit(record)
        if err is None:
            summary = summarize(result)
            if i not in answers:
                answers[i] = summary
                emit({"ans": i, "value": summary})
            elif answers[i] != summary:
                mismatched.add(i)
    calibrations.append(calibration.calibrate())
    return times, calibrations, ticks


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages from before ``exec``,
    so the kernel's high-water mark of the current address space is read
    where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    job = json.load(sys.stdin)
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import tracing
    import workloads

    method = job["method"]
    if method is None:
        operation, summarize = workloads.analyze, workloads.summarize_analyze
    else:
        operation = lambda text: workloads.solve(text, method)  # noqa: E731
        summarize = workloads.summarize_solve
    texts = job["texts"]
    answers: dict[int, dict] = {}
    mismatched: set[int] = set()
    plain = lambda fn, text: fn(text)  # noqa: E731
    done: dict = {"done": True}
    if not job["trace"]:
        # one pass, so no instance repeats; a program that got much slower
        # is cut off and its remaining instances are not attempted
        deadline = time.perf_counter() + 3 * job["seconds"] + 30
        _, calibrations, _ = run_pass(texts, operation, summarize, answers, mismatched, plain, deadline)
        done["c_end"] = calibrations[-1]
    else:
        # a warm-up pass (the first pass also pays for growing the heap),
        # then one untraced and one traced pass over the same instances
        run_pass(texts, operation, summarize, answers, mismatched, plain)
        untraced = calibration.scaled(*run_pass(texts, operation, summarize, answers, mismatched, plain))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_pass = run_pass(texts, operation, summarize, answers, mismatched, tracer.run_op)
            traced = calibration.scaled(*traced_pass)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(len(texts))
        layers["trace.overhead"] = sum(traced) / sum(untraced)
        done.update(layers=layers, spans=len(tracer.spans))
        if job.get("spans_path"):
            with open(job["spans_path"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    done["mismatched"] = sorted(mismatched)
    done["maxrss_kb"] = peak_rss_kb()
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
