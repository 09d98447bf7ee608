"""Jobs, their outcomes, and the closed-loop runner with a per-job deadline.

A job is one call to ``relmod.cli.main(argv)`` with stdout and stderr
captured, or one call into a public library function where the CLI has no
such command.  The runner times each job, enforces the workload's deadline
with SIGALRM, and hands the outcome to the job's own output check, which
runs outside the timed region.

``cli.main`` turns every ``Exception`` into exit code 3, so the deadline is
raised as a ``BaseException`` subclass that passes through it.  A job that
runs past the deadline fails even if it returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import time
from dataclasses import dataclass
from typing import Callable

# outcome statuses
OK = "ok"            # output checked and correct
KNOWN = "known"      # a listed known failure, with its expected signature
FAILED = "failed"    # missed the deadline, raised, or exited unexpectedly
WRONG = "wrong"      # finished, but the output contradicts the check


class JobDeadline(BaseException):
    """Raised by the SIGALRM handler; not an Exception, so cli.main lets it through."""


class CheckFailure(Exception):
    """Raised by an output check; the message says what was wrong."""


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    error: str | None = None
    timed_out: bool = False
    elapsed: float = 0.0

    def digest(self) -> str:
        """What the determinism check compares between two runs of a job."""
        text = f"{self.code}\n{self.stdout}\n{self.result!r}"
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Job:
    name: str
    group: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    known: str | None = None                       # reason, for a listed known failure
    known_signature: Callable[[Outcome], bool] | None = None


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def cli_call(main_module, argv: list[str]) -> Callable[[], Outcome]:
    """A job body that runs ``relmod.cli.main(argv)``; looked up at call time."""
    argv = list(argv)

    def call() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main_module.main(argv)
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    return call


def library_call(fn: Callable[[], object]) -> Callable[[], Outcome]:
    def call() -> Outcome:
        return Outcome(code=0, result=fn())

    return call


def _on_alarm(signum, frame):
    raise JobDeadline()


class Runner:
    """Runs jobs one after another (one client, closed loop)."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def run(self, job: Job) -> Outcome:
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
            try:
                outcome = job.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobDeadline:
            outcome = Outcome(timed_out=True)
        except Exception as exc:  # a library job raised: the job failed
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        outcome.elapsed = time.perf_counter() - t0
        if outcome.elapsed > self.deadline_s:
            outcome.timed_out = True
        return outcome


def judge(job: Job, outcome: Outcome) -> tuple[str, str]:
    """Classify an outcome as OK, KNOWN, FAILED or WRONG, with a reason."""
    if job.known_signature is not None and job.known_signature(outcome):
        return KNOWN, job.known or ""
    if outcome.timed_out:
        return FAILED, "missed the deadline"
    if outcome.error is not None:
        return FAILED, outcome.error
    if outcome.code == 3:
        return FAILED, "exit 3: " + outcome.stderr.strip()[:200]
    try:
        job.check(outcome)
    except CheckFailure as exc:
        return WRONG, str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return WRONG, f"unreadable output: {type(exc).__name__}: {exc}"
    return OK, ""
