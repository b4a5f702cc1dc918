"""M002: module-level cache tables mutated inside functions."""

from repro.service.session import BoundedCache

_PLANS = {}
_SEEN = set()
_RESULTS = BoundedCache(128)
_COUNTS: dict = {}


def plan(key, build):
    cached = _PLANS.get(key)
    if cached is None:
        cached = _PLANS[key] = build(key)
    return cached


def mark(key):
    seen = _SEEN
    seen.add(key)


def forget(key):
    del _RESULTS[key]


def reset():
    global _COUNTS
    _COUNTS = {}
