"""Resilience layer: budgets, degradation ladder, and state integrity.

The service path built in PRs 5–8 assumed a fault-free world: every
``optimize`` call ran to completion no matter how pathological the batch,
snapshots were raw unversioned pickle bytes, and a poisoned cache entry was
unrepresentable.  This module gives the service its degraded-but-correct
story, built on three contracts:

**Deadline budgets** (:class:`OptimizeBudget`).  A budgeted
:meth:`~repro.service.session.OptimizerSession.optimize` call threads an
absolute deadline into the optimizer loops (checked at iteration boundaries
— see ``optimize_greedy``/``optimize_volcano_ru`` —
so an unbudgeted call reads no clock and stays bit-identical to pre-budget
code).  On expiry the call falls down an explicit **degradation ladder**
(:func:`run_ladder`):

1. the requested algorithm, run to completion → ``FULL``;
2. greedy interrupted mid-search keeps its best-so-far materialized set →
   ``ANYTIME_GREEDY`` (byte-identical to a greedy run capped at the
   materialization count reached);
3. Volcano-SH's single decision pass, run when the deadline (plus a bounded
   *grace* allowance — once the deadline has fired, everything further is
   over budget; grace bounds how much further) still permits → ``VOLCANO_SH``;
4. no-sharing per-query Volcano plans → ``NO_SHARING``, the unconditional
   floor: always affordable, always a valid executable plan.

Every rung produces a plan byte-identical to running that rung's algorithm
directly, and every budgeted result carries a
:class:`~repro.optimizer.report.DegradationReport`.

**Fault quarantine** (:class:`CorruptedEntry`).  The cache families of
:class:`~repro.service.session.SessionCache` treat a corrupted entry as a
miss: :meth:`~repro.service.session.BoundedCache.get` detects the poison
wrapper, evicts it (counted in ``quarantined``), and lets the builder
recompute — by content addressing the recomputation is byte-identical to the
never-cached path, which is the invariant the chaos suite
(``tests/test_chaos.py``) enforces under injected faults.  The same
philosophy governs recipe replay: a recipe that fails validation is
dropped and re-recorded, never raised — counted as a quarantine when
damaged and as stale when a child changed (see
``DagBuilder._replay_recipe``).

**Snapshot integrity** (:func:`seal_snapshot` / :func:`open_snapshot`).
Session snapshots carry a versioned header with a sha256 payload checksum;
any truncation, bit flip, or foreign payload raises :class:`SnapshotError`
(a :class:`TypeError` subclass, preserving the historical contract) instead
of unpickling garbage.  The documented fall-back is
:meth:`~repro.service.session.OptimizerSession.from_snapshot_or_cold`: a
worker handed damaged bytes starts cold — slower, never wrong.

Fault *injection* lives next door in :mod:`repro.service.faults`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Optional

from repro.api import Algorithm
from repro.dag.nodes import Dag
from repro.optimizer import GreedyOptions
from repro.optimizer.greedy import optimize_greedy
from repro.optimizer.report import (
    BudgetExceeded,
    DegradationLevel,
    DegradationReport,
    OptimizationResult,
)
from repro.optimizer.volcano import optimize_volcano
from repro.optimizer.volcano_ru import optimize_volcano_ru
from repro.optimizer.volcano_sh import optimize_volcano_sh

__all__ = [
    "BudgetExceeded",
    "CorruptedEntry",
    "DegradationLevel",
    "DegradationReport",
    "OptimizeBudget",
    "SnapshotError",
    "open_snapshot",
    "run_ladder",
    "seal_snapshot",
]


@dataclass(frozen=True)
class OptimizeBudget:
    """A wall-clock budget for one ``optimize`` call.

    ``deadline_ms`` bounds the whole call (DAG build included; the build
    itself is not interruptible, but a build that eats the budget sends the
    search straight down the ladder).  ``grace_ms`` bounds how far past the
    deadline the Volcano-SH fallback rung may still run — once the deadline
    has fired every further instruction is over budget, so the ladder's
    question is "what is the cheapest acceptable answer", and grace is the
    knob: ``0`` drops expired calls straight to no-sharing plans, ``None``
    (the default) allows half the deadline again for the SH pass, which is
    orders of magnitude cheaper than the full search on every measured
    workload.
    """

    deadline_ms: float
    grace_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {self.deadline_ms!r}")
        if self.grace_ms is not None and self.grace_ms < 0:
            raise ValueError(f"grace_ms must be >= 0, got {self.grace_ms!r}")

    @property
    def resolved_grace_ms(self) -> float:
        return self.deadline_ms * 0.5 if self.grace_ms is None else self.grace_ms

    def deadline_from(self, start: float) -> float:
        """Absolute ``perf_counter`` deadline for a call that began at *start*."""
        return start + self.deadline_ms / 1000.0

    def grace_deadline_from(self, start: float) -> float:
        return start + (self.deadline_ms + self.resolved_grace_ms) / 1000.0


class SnapshotError(TypeError):
    """A session snapshot failed its integrity or format checks.

    Subclasses :class:`TypeError` so pre-header callers that caught the
    foreign-payload ``TypeError`` keep working.  Callers that can rebuild
    state should prefer
    :meth:`~repro.service.session.OptimizerSession.from_snapshot_or_cold`.
    """


class CorruptedEntry:
    """Poison wrapper marking a cache value as corrupted.

    :meth:`~repro.service.session.BoundedCache.get` treats a stored
    ``CorruptedEntry`` as a miss and evicts it (quarantine), so readers can
    never observe the wrapped value; the recompute that follows is
    byte-identical to a cold miss.  Used by
    :class:`~repro.service.faults.FaultInjector` to model partial cache
    corruption without inventing plausible-but-wrong fragment bytes.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"CorruptedEntry({self.value!r})"


# ---------------------------------------------------------------------------
# Snapshot integrity: versioned header + sha256 checksum
# ---------------------------------------------------------------------------

#: Snapshot header layout: magic, format version (u16 big-endian), sha256 of
#: the payload, then the payload itself.
SNAPSHOT_MAGIC = b"RPROSNAP"
SNAPSHOT_VERSION = 1
_HEADER_LEN = len(SNAPSHOT_MAGIC) + 2 + hashlib.sha256().digest_size


def seal_snapshot(payload: bytes) -> bytes:
    """Wrap pickled session state in the versioned, checksummed header."""
    digest = hashlib.sha256(payload).digest()
    return SNAPSHOT_MAGIC + struct.pack(">H", SNAPSHOT_VERSION) + digest + payload


def open_snapshot(data: bytes) -> bytes:
    """Validate a sealed snapshot and return its payload.

    Raises :class:`SnapshotError` on anything short of a byte-perfect
    snapshot: truncated data, missing or wrong magic (foreign payloads,
    including pre-header raw pickles), an unsupported version, or a checksum
    mismatch (bit flips anywhere in the payload).
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapshotError(f"snapshot must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < _HEADER_LEN:
        raise SnapshotError(
            f"snapshot truncated: {len(data)} bytes is shorter than the "
            f"{_HEADER_LEN}-byte header"
        )
    magic = data[: len(SNAPSHOT_MAGIC)]
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"not a session snapshot (bad magic {magic!r}); "
            "was this produced by OptimizerSession.snapshot_state?"
        )
    offset = len(SNAPSHOT_MAGIC)
    (version,) = struct.unpack_from(">H", data, offset)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {SNAPSHOT_VERSION})"
        )
    offset += 2
    digest_size = hashlib.sha256().digest_size
    expected = data[offset : offset + digest_size]
    payload = data[offset + digest_size :]
    actual = hashlib.sha256(payload).digest()
    if actual != expected:
        raise SnapshotError(
            "snapshot checksum mismatch: payload corrupted in transit "
            f"(expected {expected.hex()[:16]}…, got {actual.hex()[:16]}…)"
        )
    return payload


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------

def _report(
    level: DegradationLevel,
    requested: Algorithm,
    served: str,
    budget: OptimizeBudget,
    start: float,
    deadline: float,
) -> DegradationReport:
    now = perf_counter()
    return DegradationReport(
        level=level,
        requested=requested.value,
        served=served,
        budget_ms=budget.deadline_ms,
        grace_ms=budget.resolved_grace_ms,
        elapsed_ms=(now - start) * 1000.0,
        expired=now >= deadline,
    )


def cached_report(
    requested: Algorithm, served: str, budget: OptimizeBudget, start: float
) -> DegradationReport:
    """The ``FULL`` report of a budgeted call served from the plan cache."""
    return _report(
        DegradationLevel.FULL, requested, served, budget, start, budget.deadline_from(start)
    )


def run_ladder(
    dag: Dag,
    algorithm: Algorithm,
    budget: OptimizeBudget,
    start: float,
    greedy_options: Optional[GreedyOptions] = None,
) -> OptimizationResult:
    """Run *algorithm* on *dag* under *budget*, degrading on expiry.

    *start* is the ``perf_counter`` timestamp the budget is measured from
    (taken at ``optimize`` entry, before the DAG build).  Rung selection is
    purely "has the deadline (or the grace deadline) fired at rung entry":

    * not expired → run the requested algorithm with a cooperative deadline.
      Greedy interrupted mid-search returns its anytime best-so-far
      (``ANYTIME_GREEDY``); Volcano-RU interrupted raises internally and
      falls through to the next rung.
    * expired (or fell through) but within grace → one Volcano-SH decision
      pass (``VOLCANO_SH``).
    * grace gone too → per-query no-sharing plans (``NO_SHARING``), which
      always run: a budgeted call never returns empty-handed.

    Degraded results are byte-identical to running the fallback algorithm
    directly on the same DAG — the ladder composes complete algorithms, it
    never invents plans.
    """
    if algorithm not in (
        Algorithm.VOLCANO,
        Algorithm.VOLCANO_SH,
        Algorithm.VOLCANO_RU,
        Algorithm.GREEDY,
    ):
        raise ValueError(f"unsupported algorithm for budgeted optimize: {algorithm}")
    deadline = budget.deadline_from(start)
    grace_deadline = budget.grace_deadline_from(start)
    requested = algorithm

    if perf_counter() < deadline:
        if algorithm is Algorithm.GREEDY:
            result = optimize_greedy(dag, greedy_options, deadline=deadline)
            if result.counters.get("deadline_expired"):
                level = DegradationLevel.ANYTIME_GREEDY
            else:
                level = DegradationLevel.FULL
            result.degradation = _report(
                level, requested, result.algorithm, budget, start, deadline
            )
            return result
        if algorithm is Algorithm.VOLCANO_RU:
            try:
                result = optimize_volcano_ru(dag, deadline=deadline)
            except BudgetExceeded:
                pass
            else:
                result.degradation = _report(
                    DegradationLevel.FULL, requested, result.algorithm, budget, start, deadline
                )
                return result
        elif algorithm is Algorithm.VOLCANO_SH:
            result = optimize_volcano_sh(dag)
            result.degradation = _report(
                DegradationLevel.FULL, requested, result.algorithm, budget, start, deadline
            )
            return result
        elif algorithm is Algorithm.VOLCANO:
            result = optimize_volcano(dag)
            result.degradation = _report(
                DegradationLevel.FULL, requested, result.algorithm, budget, start, deadline
            )
            return result

    # Expired at entry, or Volcano-RU fell through: the SH rung runs while
    # the grace allowance lasts...
    if algorithm is not Algorithm.VOLCANO and perf_counter() < grace_deadline:
        result = optimize_volcano_sh(dag)
        level = (
            DegradationLevel.FULL
            if algorithm is Algorithm.VOLCANO_SH
            else DegradationLevel.VOLCANO_SH
        )
        result.degradation = _report(
            level, requested, result.algorithm, budget, start, deadline
        )
        return result

    # ...and the no-sharing floor runs unconditionally.
    result = optimize_volcano(dag)
    level = (
        DegradationLevel.FULL
        if algorithm is Algorithm.VOLCANO
        else DegradationLevel.NO_SHARING
    )
    result.degradation = _report(
        level, requested, result.algorithm, budget, start, deadline
    )
    return result
