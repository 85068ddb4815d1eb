"""Seeded solver instances, by name.

Every generator draws from a fixed seed or from the generator it is given,
so a name always stands for the same (sources, targets) pairs. SOLVER_CORPUS
maps each name to a function that returns its list of instances, and
test_corpus.py pins the cptp_feasible status of every one of them.
"""
import numpy as np

from chanopt.channels import KrausChannel, apply_extended, weyl_ops
from chanopt.numerics import SystemShape, max_entangled
from conftest import FIXTURE_SEED, haar_unitary, random_density, random_kraus, random_pure


def pure_pair(rng, d, overlap):
    """Two projectors onto random pure states with |<a|c>| = overlap."""
    a, b = random_pure(rng, d), random_pure(rng, d)
    b = b - np.vdot(a, b) * a
    b /= np.linalg.norm(b)
    c = overlap * a + np.sqrt(1.0 - overlap**2) * b
    return [np.outer(a, a.conj()), np.outer(c, c.conj())]


def pure_sources(rng, d):
    return [np.outer(x, x.conj()) for x in (random_pure(rng, d) for _ in range(2))]


def image_of(ks, src):
    return [sum(k @ m @ k.conj().T for k in ks) for m in src]


def conjugated_weyl_pair(rng):
    """Two qubit Weyl mixtures, each followed by its own unitary: phi_d
    against a random (2,2) input, a Choi dimension of 16 (the pair-verdict
    cap)."""
    chans = []
    for _ in range(2):
        u, weights = haar_unitary(rng, 2), rng.dirichlet(np.ones(4))
        chans.append(KrausChannel.from_ops([np.sqrt(p) * u @ w for p, w in zip(weights, weyl_ops(2))]))
    shape = SystemShape((2, 2))
    phi, psi = max_entangled(2), random_pure(rng, 4)
    src, tgt = ([apply_extended(ch, np.outer(v, v.conj()), shape) for ch in chans] for v in (phi, psi))
    return [(src, tgt)]


def qutrit_identity(rng):
    """The identity map on one pure and one full-rank qutrit state."""
    fam = [random_density(rng, 3, 1), random_density(rng, 3)]
    return [(fam, [m.copy() for m in fam])]


def near_miss_qutrit_to_qubit(rng):
    """60 pure pairs, 3 -> 2, whose source overlap exceeds the target's by
    1e-3 to 1e-1: no channel exists, by a small margin."""
    instances = []
    for _ in range(60):
        target = rng.uniform(0.05, 0.85)
        source = target + 10 ** rng.uniform(-3, -1)
        instances.append((pure_pair(rng, 3, source), pure_pair(rng, 2, target)))
    return instances


def newton_instances():
    """40 seeded pure pairs at each of 2->2, 2->3 and 3->2 with overlaps
    0.3 -> 0.7 (feasible), the kind of instance the unreduced
    interior-point method resolves in 6-7 steps (8-10 from the start V = 1)
    and a less accurate Newton solve (a pseudo-inverse matrix of the Schur
    matrix, multiplied into each right-hand side) left unresolved.
    cptp_feasible settles each at the projected start on the face of its
    targets' kernels, in 0 steps."""
    rng = np.random.default_rng(2525)
    return [
        (pure_pair(rng, din, 0.3), pure_pair(rng, dout, 0.7))
        for din, dout in ((2, 2), (2, 3), (3, 2))
        for _ in range(40)
    ]


def compressible_instances(rng):
    """Seeded instances whose sources or targets leave part of their space
    out: pure pairs at 2->3 and 3->2 both ways, and per draw a qutrit pair
    on one plane with its image under a 2-Kraus qutrit channel, a pure
    qubit pair under a qubit-to-ququart isometry, and a qutrit pair on one
    plane against random qubit states."""
    out = []
    for din, dout in ((2, 3), (3, 2)):
        for _ in range(4):
            out += [(pure_pair(rng, din, 0.3), pure_pair(rng, dout, 0.7))]
            out += [(pure_pair(rng, din, 0.7), pure_pair(rng, dout, 0.3))]
    for _ in range(4):
        plane = random_kraus(rng, 2, 3, 1)[0]
        src = [plane @ random_density(rng, 2) @ plane.conj().T for _ in range(2)]
        out += [(src, image_of(random_kraus(rng, 3, 3, 2), src))]
        iso = random_kraus(rng, 2, 4, 1)[0]
        src = pure_sources(rng, 2)
        out += [(src, [iso @ m @ iso.conj().T for m in src])]
        plane = random_kraus(rng, 2, 3, 1)[0]
        out += [([plane @ random_density(rng, 2) @ plane.conj().T for _ in range(2)], [random_density(rng, 2) for _ in range(2)])]
    return out


def mixed_garblings():
    """40 seeded 2 -> 2 instances: two or three full-rank qubit states
    against their image under a random channel of Kraus rank 1-3, so every
    one has a channel and none compresses."""
    rng = np.random.default_rng(3600)
    instances = []
    for k in range(40):
        src = [random_density(rng, 2) for _ in range(2 + k % 2)]
        instances.append((src, image_of(random_kraus(rng, 2, 2, 1 + k // 2 % 3), src)))
    return instances


def singular_targets():
    """Seeded instances with rank-deficient targets, each with its mirror:
    per draw at 2->3, 2->4 and 3->4, two full-rank mixed sources against
    their image under a random channel of Kraus rank 1-2 (a channel
    exists) and against that channel's images of two random pure states
    (targets of rank 1-2 on different supports); then pure pairs at 3->3
    with random overlaps."""
    rng = np.random.default_rng(3700)
    instances = []
    for din, dout in ((2, 3), (2, 4), (3, 4)):
        for k in range(4):
            src = [random_density(rng, din) for _ in range(2)]
            ks = random_kraus(rng, din, dout, 1 + k % 2)
            instances += [(src, image_of(ks, src)), (src, image_of(ks, pure_sources(rng, din)))]
    for _ in range(8):
        source, target = rng.uniform(0.05, 0.95, 2)
        instances.append((pure_pair(rng, 3, source), pure_pair(rng, 3, target)))
    return both_ways(instances)


def garbling_3_to_4(rng, k):
    """Qutrit sources of ranks 3, 3 and 2 under a random 3-Kraus channel."""
    src = [random_density(rng, 3, r) for r in (3, 3, 2)]
    return src, image_of(random_kraus(rng, 3, 4, 3), src)


def qutrit_garbling(rng, k):
    """Two qutrit sources of ranks cycling with k under a 2-Kraus channel."""
    src = [random_density(rng, 3, 1 + k % 3), random_density(rng, 3, 1 + (k + 1) % 3)]
    return src, image_of(random_kraus(rng, 3, 3, 2), src)


def pure_2_to_4(rng, k):
    """A pure qubit pair against its image under a random 1-3 Kraus channel
    into a ququart, that image mixed 3 % with random pure states, or random
    mixed states, by k."""
    src = pure_sources(rng, 2)
    tgt = image_of(random_kraus(rng, 2, 4, 1 + k // 3 % 3), src)
    if k % 3 == 1:
        tgt = [0.97 * m + 0.03 * x for m, x in zip(tgt, pure_sources(rng, 4))]
    elif k % 3 == 2:
        tgt = [random_density(rng, 4) for _ in src]
    return src, tgt


def draws(build, seed, count):
    """The first count instances build(rng, k) draws from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [build(rng, k) for k in range(count)]


def weyl_draw(rng, k):
    """One conjugated-Weyl pair per draw, whatever k."""
    return conjugated_weyl_pair(rng)[0]


def both_ways(instances):
    return instances + [(tgt, src) for src, tgt in instances]


# the seeded draws of the solver failures recorded for earlier versions:
# (seed, draw, builder); draw k is the last of draws(builder, seed, k + 1)
FAILURE_DRAWS = {
    "garbling-3-to-4": (3505, 56, garbling_3_to_4),
    "qutrit-garbling": (3506, 34, qutrit_garbling),
    "pure-2-to-4": (3504, 22, pure_2_to_4),
    "two-qubit-pair": (3502, 5, weyl_draw),
}

SOLVER_CORPUS = {
    "newton": newton_instances,
    "newton-mirror": lambda: [(tgt, src) for src, tgt in newton_instances()],
    "compressible": lambda: compressible_instances(np.random.default_rng(FIXTURE_SEED)),
    "mixed-garbling-2-to-2": mixed_garblings,
    "near-miss-3-to-2": lambda: near_miss_qutrit_to_qubit(np.random.default_rng(FIXTURE_SEED)),
    "qutrit-identity": lambda: qutrit_identity(np.random.default_rng(FIXTURE_SEED)),
    "two-qubit-pair": lambda: both_ways(draws(weyl_draw, 3502, 10)),
    "pure-2-to-4": lambda: draws(pure_2_to_4, 3504, 24),
    "garbling-3-to-4": lambda: draws(garbling_3_to_4, 3505, 20),
    "qutrit-garbling": lambda: draws(qutrit_garbling, 3506, 40),
    "singular-targets": singular_targets,
    "failures": lambda: [draws(build, seed, draw + 1)[-1] for seed, draw, build in FAILURE_DRAWS.values()],
}
