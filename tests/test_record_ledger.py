"""Replays the committed record ledger (record_ledger.py, record_ledger.json).

Every record's gamma_total_db must match within 1e-6 dB and every failure
exactly. Iteration counts and Monte Carlo fractions must match exactly where
numpy's version and SIMD extensions are the ledger's; elsewhere a ufunc may
round differently, which can end a line search one trial sooner or later or
move a sample across the half-energy threshold, so there a fraction may
differ by 1e-4 (20 of the 200,000 samples) and iterations go unchecked.
"""

import pytest

import record_ledger

GAMMA_TOLERANCE_DB = 1e-6
FRACTION_TOLERANCE = 1e-4


@pytest.fixture(scope="module")
def ledgers():
    return record_ledger.load(), record_ledger.replay()


def test_the_replay_holds_the_ledger_s_records(ledgers):
    old, new = ledgers
    summary = record_ledger.compare(old, new)
    assert len(new["records"]) == summary["records"] == 330
    assert summary["missing"] == []
    largest = summary["largest"][0][0]
    assert largest <= GAMMA_TOLERANCE_DB, summary["largest"][0]
    assert summary["failures_changed"] == []
    if old["environment"] == new["environment"]:
        assert summary["iterations_changed"] == []


def test_the_replay_holds_the_ledger_s_fractions(ledgers):
    old, new = ledgers
    assert [(f["kind"], f["seed"], f["samples"]) for f in new["fractions"]] == \
        [(f["kind"], f["seed"], f["samples"]) for f in old["fractions"]]
    tolerance = 0.0 if old["environment"] == new["environment"] else FRACTION_TOLERANCE
    for was, now in zip(old["fractions"], new["fractions"]):
        assert float(now["fraction"]) == pytest.approx(float(was["fraction"]), abs=tolerance)
