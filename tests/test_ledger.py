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


def test_the_twist_moves_every_twist_line():
    # classes 0 and unit 1 are fixed by every twist, so only these lines
    # let the ledger see a change in galois.twist
    moved, context = {}, None
    for line in ledger.LEDGER.read_text().splitlines():
        if line.startswith("@ "):
            context = moved.setdefault(line[2:], {})
        elif context is not None:
            fields = line.split("\t")
            context[fields[0]] = fields[-1] != "="
    for name, ctx in ledger.contexts():
        shapes = ledger.twist_shapes(ctx)
        assert shapes or ctx.p < 5, name
        for text in shapes:
            assert moved[name][text], (name, text)
