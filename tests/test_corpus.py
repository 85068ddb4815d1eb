"""The cptp_feasible status of every instance of tests/corpus.py.

STATUSES holds one letter per instance, in corpus order: f(easible),
i(nfeasible) or u(nresolved). A status that moves is a changed check: the
change that moves it edits the letter here and says why in CHANGES.md.
"""
import pytest

from chanopt.comparison import cptp_feasible
from corpus import SOLVER_CORPUS

STATUSES = {
    "newton": "f" * 120,
    "newton-mirror": "i" * 120,
    "compressible": "fififififififififfiffiffiffi",
    "mixed-garbling-2-to-2": "f" * 40,
    "near-miss-3-to-2": "i" * 60,
    "qutrit-identity": "f",
    "two-qubit-pair": "iiiiiuififiiiiiiiiii",
    "pure-2-to-4": "fiiffiffffiffffffifiifff",
    "garbling-3-to-4": "f" * 20,
    # draw 34 reached the step cap from the start V = 1 (before the feasible
    # start; "u" then)
    "qutrit-garbling": "ffffffffffffffffffffffffffffffffffffffff",
    # garbling-3-to-4, qutrit-garbling, pure-2-to-4, two-qubit-pair; the
    # first two reached the step cap from V = 1 ("uufu" then)
    "failures": "fffu",
    # recorded before cptp_feasible solved on the face its singular targets
    # allow
    "singular-targets": "fifififififififififififiifiifiiiffifffifffiiffiiffifffiififfifff",
}


def test_every_corpus_set_is_pinned():
    assert sorted(STATUSES) == sorted(SOLVER_CORPUS)


@pytest.mark.parametrize("name", sorted(STATUSES))
def test_solver_statuses_match_the_recorded_table(name):
    statuses = "".join(cptp_feasible(src, tgt).status[0] for src, tgt in SOLVER_CORPUS[name]())
    assert statuses == STATUSES[name]
