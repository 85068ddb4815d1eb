"""Laws every dominance verdict obeys, whichever route reached it.

Each test checks one law on the verdicts themselves, not against a
reference of the route that reached them. The cases are the seeded
families of seeded_families and draws 1790-1799 of near_tie_pairs, among
them draw 1795, whose candidate beats the challenger only between grid
points. Laws that need new dominance_check calls on top of the swap take
every fifth family, so that the module runs in about 2 s. A unitary copy
of a family being equivalent is no law here yet: a tie neither identical
nor commuting is still inconclusive.
"""
from functools import lru_cache

import numpy as np

from chanopt.comparison import bayes_binary_risk, default_grid, dominance_check
from conftest import bloch, haar_unitary, random_density, random_kraus

FAMILIES = 150
MIRROR = {"dominates": "dominated", "dominated": "dominates"}
# every relation but inconclusive claims something about every s >= 0
CLAIMS = {"dominates", "dominated", "equivalent", "incomparable"}


def seeded_families():
    """FAMILIES (candidate, challenger, certify) cases (seed 2026): d and
    the member count each 2 or 3, full-rank candidates, and in turn a
    random challenger, a garbling of the candidate by a random channel, and
    the candidate depolarized by 3 %; certify is on or off at random."""
    rng = np.random.default_rng(2026)
    cases = []
    for k in range(FAMILIES):
        d, m = (int(x) for x in rng.integers(2, 4, size=2))
        cand = [random_density(rng, d) for _ in range(m)]
        if k % 3 == 0:
            chal = [random_density(rng, d) for _ in range(m)]
        elif k % 3 == 1:
            ks = random_kraus(rng, d, d, 2)
            chal = [sum(k @ x @ k.conj().T for k in ks) for x in cand]
        else:
            chal = [0.97 * x + 0.03 * np.eye(d) / d for x in cand]
        cases.append((cand, chal, bool(rng.integers(2))))
    return cases


def near_tie_pairs(start, stop):
    """Draws [start, stop) of seeded qubit pairs, each with certify on and
    off. np.random.default_rng(11); per draw, two candidate Bloch vectors,
    each of length U(0.3, 0.99) drawn first, then a direction from
    normal(size=3); then each challenger vector is r U(0.97, 1.03) +
    N(0, 0.01)^3, rescaled to length 0.999 if it reaches 1."""
    rng = np.random.default_rng(11)
    cases = []
    for k in range(stop):
        cand = []
        for _ in range(2):
            length = rng.uniform(0.3, 0.99)
            u = rng.normal(size=3)
            cand.append(length * u / np.linalg.norm(u))
        chal = []
        for r in cand:
            h = r * rng.uniform(0.97, 1.03) + rng.normal(0.0, 0.01, size=3)
            chal.append(h * 0.999 / np.linalg.norm(h) if np.linalg.norm(h) >= 1.0 else h)
        if k >= start:
            cases += [([bloch(r) for r in cand], [bloch(r) for r in chal], c) for c in (True, False)]
    return cases


@lru_cache(maxsize=None)
def cases(every: int = 1):
    """(candidate, challenger, certify, verdict) of one seeded family in
    every `every`, then of every near-tie pair; each verdict is computed
    once for the module."""
    if every > 1:
        return cases()[:FAMILIES:every] + cases()[FAMILIES:]
    out = seeded_families() + near_tie_pairs(1790, 1800)
    return [(cand, chal, certify, dominance_check(cand, chal, certify=certify)) for cand, chal, certify in out]


def test_swap_mirrors_the_relation():
    """(a) dominance_check(B, A) is dominance_check(A, B) with dominates and
    dominated exchanged, by the same method."""
    for cand, chal, certify, v in cases():
        w = dominance_check(chal, cand, certify=certify)
        assert (w.relation, w.method) == (MIRROR.get(v.relation, v.relation), v.method)


def test_unitaries_on_the_outputs_change_no_relation():
    """(b) a unitary on each side's outputs, its own per side."""
    rng = np.random.default_rng(7)
    for cand, chal, certify, v in cases(5):
        u, w = (haar_unitary(rng, len(fam[0])) for fam in (cand, chal))
        turned = [[x @ m @ x.conj().T for m in fam] for x, fam in ((u, cand), (w, chal))]
        assert dominance_check(*turned, certify=certify).relation == v.relation


def test_relabelling_members_changes_no_relation():
    """(c) one permutation of the member labels on both sides."""
    rng = np.random.default_rng(8)
    for cand, chal, certify, v in cases(5):
        order = rng.permutation(len(cand))
        moved = [[fam[i] for i in order] for fam in (cand, chal)]
        assert dominance_check(*moved, certify=certify).relation == v.relation


def test_a_garbling_never_beats_its_source():
    """(e) A against a garbling of A is never dominated or incomparable: the
    seeded families whose challenger is a random channel's image or the
    candidate depolarized."""
    garblings = [v.relation for k, (*_, v) in enumerate(cases()[:FAMILIES]) if k % 3]
    assert "dominates" in garblings
    assert not {"dominated", "incomparable"} & set(garblings)


def test_claims_agree_with_the_bayes_risk_off_the_grid():
    """(f) dominates (dominated) means the candidate's Bayes risk is never
    above (below) the challenger's, pair by pair, at any prior 1/(1 + s):
    checked on 200 geometric s in [1e-2, 1e2] (ratio 1.047)."""
    s_values = np.geomspace(1e-2, 1e2, 200)
    checked = 0
    for cand, chal, _, v in cases(5):
        if v.relation not in MIRROR:
            continue
        sign = 1.0 if v.relation == "dominates" else -1.0
        for i in range(len(cand)):
            for j in range(i + 1, len(cand)):
                for s in s_values:
                    prior = 1.0 / (1.0 + s)
                    gap = bayes_binary_risk(chal[i], chal[j], prior) - bayes_binary_risk(cand[i], cand[j], prior)
                    assert sign * gap >= -1e-9
        checked += 1
    assert checked >= 10


def test_grids_never_give_two_different_claims():
    """(g) default_grid(8), (200) and (2000) may differ only by
    inconclusive: one may find a witness the others miss, but no two give
    different claims."""
    for cand, chal, certify, v in cases(5):
        claims = {v.relation} & CLAIMS
        for points in (8, 2000):
            claims |= {dominance_check(cand, chal, grid=default_grid(points), certify=certify).relation} & CLAIMS
        assert len(claims) <= 1
