"""M001 fixes: every cache is registered, or justifies why it need not be."""


class SessionCache:
    def __init__(self, catalog):
        self.catalog = catalog
        self.scans = {}
        self.derived = {}
        self.implications = {}  # repro-lint: ok(M001) pure predicate logic; never invalidated

    def _families(self):
        return (self.scans, self.derived)


class UnregisteredClass:
    # Classes outside [tool.repro-lint.registries] are not cache owners;
    # their dict attributes are plain state, not findings.
    def __init__(self):
        self.state = {}
