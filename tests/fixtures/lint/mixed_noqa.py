"""One-checker fixture: an R and an X violation, and a suppressed twin of each."""

import threading


class Tally:
    _guarded_by_ = {"total": "lock"}

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.total = 0

    def add_racy(self, n: int) -> None:
        self.total += n  # X001: written without ``lock`` held

    def add_audited(self, n: int) -> None:
        self.total += n  # noqa: X001


def swallow(fn):
    try:
        return fn()
    except:  # noqa: E722 - the R003 under test
        return None


def swallow_audited(fn):
    try:
        return fn()
    except:  # noqa: E722, R003
        return None
