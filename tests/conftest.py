"""Helpers shared by the test modules."""

import contextlib
import signal

SECONDS = 3.0


@contextlib.contextmanager
def deadline():
    """Fail the block once it has run SECONDS of wall time: SIGALRM stops a
    call that would hang instead of waiting for it to finish."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    except TimeoutError:
        # the frame SIGALRM interrupted can lack a line number, and pytest
        # fails internally on printing it, so the stopped call is dropped
        raise TimeoutError(f"still running after {SECONDS} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
