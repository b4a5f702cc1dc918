"""Deterministic fault injection for the service layer (chaos harness).

:class:`FaultInjector` registers hooks into the
:class:`~repro.service.session.BoundedCache` families of a
:class:`~repro.service.session.SessionCache` and, with a seeded RNG, drops
or corrupts entries *mid-workload* — between the moment the builder stored a
fragment and the moment it asks for it back.  The injector exists to prove a
negative: under any schedule of injected cache faults, served plans are
**byte-identical** to the cold ``memoize=False`` reference, because the only
legal reaction to a missing or poisoned fragment is evict-and-recompute
(see :class:`~repro.service.resilience.CorruptedEntry`), never a wrong
answer.  ``tests/test_chaos.py`` runs that oracle over every cache family.

Determinism is load-bearing: a chaos failure must replay.  The RNG is seeded
through sha256 (never Python's process-salted ``hash()``), faults fire as a
pure function of the (deterministic) cache-access sequence, and the schedule
log records ``(family, access index, action)`` tuples — no reprs of
hash-ordered containers — so the same seed produces the same schedule digest
under any ``PYTHONHASHSEED`` (asserted by the hash-seed matrix in
``tests/test_build_determinism.py``).

Snapshot bytes are a second fault surface: :meth:`FaultInjector.corrupt_snapshot`
deterministically truncates or bit-flips a sealed snapshot, which
:meth:`~repro.service.session.OptimizerSession.from_snapshot` must reject
with :class:`~repro.service.resilience.SnapshotError` (fall back cold via
``from_snapshot_or_cold``).  Recipe replay is the third: a corrupted recipe
value never reaches ``_replay_recipe`` (the poison is quarantined at
``get``), and a structurally invalid one fails validation and is quarantined
by the builder.

Usage::

    injector = FaultInjector(seed=7, rate=0.2, mode="mixed")
    with injector.attach(session):
        session.build_dag(batch)       # faults fire inside the build
    print(injector.injected_faults, injector.schedule_digest())
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.service.resilience import CorruptedEntry
from repro.service.session import BoundedCache, OptimizerSession, SessionCache

__all__ = ["FaultInjector"]

#: Fault modes: ``drop`` deletes the entry, ``corrupt`` replaces it with a
#: :class:`CorruptedEntry` poison wrapper, ``mixed`` picks per fault.
FAULT_MODES = ("drop", "corrupt", "mixed")

_SNAPSHOT_MODES = ("truncate", "bitflip")


def _derive_rng(seed: int, scope: str) -> random.Random:
    """A ``random.Random`` seeded via sha256 — never the process-salted
    ``hash()`` — so streams replay under any ``PYTHONHASHSEED``."""
    digest = hashlib.sha256(f"fault-injector:{scope}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultInjector:
    """Seeded chaos: drop/corrupt cache entries and damage snapshot bytes.

    One injector owns one deterministic fault schedule.  ``rate`` is the
    per-access fault probability; ``families`` restricts injection to the
    named :meth:`SessionCache._families` keys (``None`` = all six);
    ``mode`` picks what a fault does (see :data:`FAULT_MODES`).  Attach to a
    session (or bare :class:`SessionCache`) with :meth:`attach` — also a
    context manager — and read the audit trail from :attr:`schedule`.
    """

    def __init__(
        self,
        seed: int,
        rate: float = 0.1,
        families: Optional[Sequence[str]] = None,
        mode: str = "mixed",
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate!r}")
        if mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
        self.seed = seed
        self.rate = rate
        self.mode = mode
        self.families: Optional[Tuple[str, ...]] = (
            tuple(families) if families is not None else None
        )
        self._rng = _derive_rng(seed, "cache")
        self._snapshot_rng = _derive_rng(seed, "snapshot")
        #: Audit log: one ``(family, access index, action)`` tuple per
        #: injected fault, in injection order.  Deliberately free of any
        #: hash-ordered content so its digest is PYTHONHASHSEED-stable.
        self.schedule: List[Tuple[str, int, str]] = []
        self.injected_drops = 0
        self.injected_corruptions = 0
        self.snapshot_corruptions = 0
        self._accesses = 0
        self._attached: List[Tuple[BoundedCache, str]] = []

    # -- lifecycle -------------------------------------------------------------
    def attach(self, target: Union[OptimizerSession, SessionCache]) -> "FaultInjector":
        """Install fault hooks on *target*'s cache families (idempotent-safe:
        refuses a cache that already has a hook)."""
        cache = target.cache if isinstance(target, OptimizerSession) else target
        selected = cache._families()
        if self.families is not None:
            unknown = [name for name in self.families if name not in selected]
            if unknown:
                raise ValueError(f"unknown cache families: {unknown}")
        for family, table in selected.items():
            if self.families is not None and family not in self.families:
                continue
            if table.fault_hook is not None:
                raise ValueError(
                    f"cache family {family!r} already has a fault hook attached"
                )
            table.fault_hook = self._make_hook(family)
            self._attached.append((table, family))
        return self

    def detach(self) -> None:
        """Remove every hook this injector installed."""
        for table, _family in self._attached:
            table.fault_hook = None
        self._attached.clear()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- cache faults ----------------------------------------------------------
    @property
    def injected_faults(self) -> int:
        return self.injected_drops + self.injected_corruptions

    def _make_hook(self, family: str) -> Callable[[BoundedCache, Any], None]:
        def hook(cache: BoundedCache, key: Any) -> None:
            # One RNG draw per hooked access, fired or not: the stream then
            # advances as a pure function of the access sequence, so two runs
            # with the same seed fault the same accesses.
            self._accesses += 1
            if self._rng.random() >= self.rate:
                return
            action = self.mode
            if action == "mixed":
                action = "drop" if self._rng.random() < 0.5 else "corrupt"
            # dict.* primitives on purpose: injection must not refresh LRU
            # recency or trigger capacity eviction accounting.
            if not dict.__contains__(cache, key):
                return  # nothing stored to fault; the draw still advanced
            if action == "drop":
                dict.__delitem__(cache, key)
                self.injected_drops += 1
            else:
                value = dict.__getitem__(cache, key)
                if value.__class__ is CorruptedEntry:
                    return  # already poisoned by an earlier fault
                dict.__setitem__(cache, key, CorruptedEntry(value))
                self.injected_corruptions += 1
            self.schedule.append((family, self._accesses, action))

        return hook

    def schedule_digest(self) -> str:
        """sha256 over the schedule log (stable across processes/hash seeds)."""
        serialized = "\n".join(
            f"{family}:{access}:{action}" for family, access, action in self.schedule
        )
        return hashlib.sha256(serialized.encode()).hexdigest()

    # -- snapshot faults -------------------------------------------------------
    def corrupt_snapshot(self, data: bytes, mode: Optional[str] = None) -> bytes:
        """Deterministically damage sealed snapshot bytes.

        ``mode`` is ``"truncate"``, ``"bitflip"``, or ``None`` (seeded
        choice).  The result must be rejected by
        :meth:`~repro.service.session.OptimizerSession.from_snapshot` — the
        chaos suite asserts it raises
        :class:`~repro.service.resilience.SnapshotError`.
        """
        if mode is None:
            mode = self._snapshot_rng.choice(_SNAPSHOT_MODES)
        if mode not in _SNAPSHOT_MODES:
            raise ValueError(f"mode must be one of {_SNAPSHOT_MODES}, got {mode!r}")
        if not data:
            raise ValueError("cannot corrupt an empty snapshot")
        self.snapshot_corruptions += 1
        if mode == "truncate":
            cut = self._snapshot_rng.randrange(0, len(data))
            return data[:cut]
        index = self._snapshot_rng.randrange(0, len(data))
        bit = 1 << self._snapshot_rng.randrange(0, 8)
        flipped = bytearray(data)
        flipped[index] ^= bit
        return bytes(flipped)
