"""M002 fixes: module-level tables that are read-only, shadowed, or
justified."""

_NAMES = {"scan": "table_scan", "join": "merge_join"}
_KINDS = frozenset({"scan", "join"})
_PLANS = {}  # repro-lint: ok(M002) pure function of an int key; cleared past 4096 entries


def describe(kind):
    return _NAMES[kind] if kind in _KINDS else kind


def plan(key, build):
    if len(_PLANS) > 4096:
        _PLANS.clear()
    cached = _PLANS.get(key)
    if cached is None:
        cached = _PLANS[key] = build(key)
    return cached


def local_table(keys):
    # A local of the same name shadows the module-level table.
    _NAMES = {}
    for key in keys:
        _NAMES[key] = len(_NAMES)
    return _NAMES
