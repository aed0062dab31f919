import pytest

import ledger


def test_answers_match_the_ledger():
    # every recorded answer is rebuilt; only an announced answer change
    # re-records the file (python tests/ledger.py --write)
    diff = ledger.differences(limit=10)
    if diff:
        pytest.fail("answers differ from tests/data/answers.ledger:\n" + "\n".join(diff))


def test_ledger_stays_small():
    assert ledger.LEDGER.stat().st_size < 300_000
