"""Usage errors of ``benchmarks/harness.py`` come before any leg runs.

A leg can take minutes; an invalid flag combination must exit with the
argparse usage status (2) without doing any of that work first.
"""

import pytest

INVALID = [
    [],
    ["--smoke", "--chaos"],
    ["--result-cache", "--chaos"],
    ["--smoke", "--service-batches", "4"],
    ["--result-cache", "--service-workers=3"],
    ["--service", "--chaos-seed", "7"],
    ["--service", "--batch", "3"],
]


@pytest.mark.parametrize("argv", INVALID, ids=lambda argv: " ".join(argv) or "no-leg")
def test_invalid_combination_exits_before_any_leg(harness, monkeypatch, argv):
    def leg(*args, **kwargs):
        raise AssertionError(f"a leg ran before the usage error for {argv}")

    for name in ("smoke", "measure_result_cache", "measure_service_throughput"):
        monkeypatch.setattr(harness, name, leg)
    with pytest.raises(SystemExit) as excinfo:
        harness._main(argv)
    assert excinfo.value.code == 2
