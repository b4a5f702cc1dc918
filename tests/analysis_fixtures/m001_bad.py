"""M001: cache attribute missing from the class's invalidation registry.

``SessionCache`` is registered in ``[tool.repro-lint.registries]`` as owning
``_families``; every dict/set-valued attribute its __init__
creates must appear there (or carry a justified suppression).
"""


class SessionCache:
    def __init__(self, catalog):
        self.catalog = catalog
        self.scans = {}
        self.derived = {}
        self.orphan = {}  # never registered: survives invalidation, goes stale

    def _families(self):
        return (self.scans, self.derived)
