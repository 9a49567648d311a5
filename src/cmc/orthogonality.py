"""Finite-depth orthogonality evidence, moduli, and family building.

The basic quantity is the depth-d gap: over the level-d cells, the total mass
by which one measure exceeds the other.  It equals the depth-d total
variation distance, is nondecreasing in depth, and tends to 1 exactly for
orthogonal pairs, so certificates found at a finite depth are conclusive
while absence of one never is.

A gap walks down to the frontier cells where both codes are products
(``MeasureCode.product_below``) and settles each with one seeded product
sweep, or by its two masses where both share one schedule; without product
structure it splits no cell below ``_GENERIC_DEPTH``.  Certificate cells,
moduli and refutation stages take their cells from one level walk, ``_levels``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, tee

from .bits import check_natural
from .errors import BudgetExceeded, Record
from .kakutani import Inconclusive, perfect_family
from .measures import CylinderFamily, ExactSum, ZERO, product_code
from .productgap import mim_masses, tv_upper_bound
from .schedules import ks_schedule

_ENUM_DEPTH = 16  # product pairs deeper than this get the affinity prefilter
_GENERIC_DEPTH = 22  # deepest cell the walk splits without product structure
_CELL_LIMIT = 1 << 18  # largest certificate cell set materialized
_PROBE_DEPTH = 12  # reported gap depth when a sweep is pre-filtered away


def _levels(code, keep):
    """Levels 0, 1, 2, ... of the cells ``s`` with ``keep(code._read(s))``, each
    a lazy iterator in lex order over the kept children of the level before.
    Cells grow from the root, so they are read unchecked.  A level read only
    in part is finished when the next one is read."""
    cells = ("",)
    while True:
        level, parents = tee(s for s in cells if keep(code._read(s)))
        yield level
        cells = (t for s in parents for t in (s + "0", s + "1"))


def _masses_above(mu, nu, d):
    """Exact (mu(A), nu(A)) for the level-d cell set A = {nu > mu}: a walk to
    cells of zero mass, at level d or on the product frontier (the root, for
    two products), whose pieces two ``ExactSum``s add up."""
    mu_a, nu_a = ExactSum(), ExactSum()
    stack = [""]
    while stack:
        s = stack.pop()
        m, v = mu._read(s), nu._read(s)
        if not v:
            continue
        # below a cell of zero mu-mass all the nu-mass lies in A
        if m and len(s) < d:
            sa, sb = mu.product_below(s), nu.product_below(s)
            if sa is None or sb is None:
                if len(s) == _GENERIC_DEPTH:
                    raise BudgetExceeded(f"depth {d} needs product structure on both codes")
                stack += (s + "1", s + "0")
                continue
            if sa is not sb:  # with one schedule, every cell below has the ratio of s
                r = range(len(s), d)
                m, v = mim_masses(map(sa.alpha, r), map(sb.alpha, r), d, (m, v))  # (0, 0) or v > m
        (mn, md), (vn, vd) = m.as_integer_ratio(), v.as_integer_ratio()
        if vn * md > mn * vd:  # nu > mu; denominators are positive
            mu_a.add(mn, md)
            nu_a.add(vn, vd)
    return mu_a.value(), nu_a.value()


def gap(mu, nu, d):
    """Depth-d total-variation gap: sum over level-d cells of
    ``max(nu - mu, 0)``; symmetric and nondecreasing in d."""
    mu_a, nu_a = _masses_above(mu, nu, check_natural(d, "depth"))
    return nu_a - mu_a


class OrthoCertificate(Record):
    """Level-``depth`` cell family with tiny mu-mass and near-full nu-mass;
    re-checkable with ``measure_of_family``."""

    epsilon: Fraction
    depth: int
    cells: CylinderFamily
    mu_mass: Fraction
    nu_mass: Fraction


def _check_epsilon(epsilon):
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2)")
    return epsilon


def ortho_certificate(mu, nu, epsilon, max_depth):
    """Scan depths 1..max_depth for a certificate that the pair is orthogonal
    to tolerance ``epsilon``: cells where nu dominates, with mu-mass < epsilon
    and nu-mass > 1 - epsilon.

    For a pair of product measures a Bhattacharyya-affinity bound is checked
    first: when it already caps every depth's gap below ``1 - 2 epsilon`` no
    certificate can exist in range and the sweep is skipped.
    """
    epsilon = _check_epsilon(epsilon)
    check_natural(max_depth, "max_depth")
    sa, sb = mu.product_below(""), nu.product_below("")
    if sa is not None and sb is not None and max_depth > _ENUM_DEPTH:
        r = range(max_depth)
        bound = tv_upper_bound(map(sa.alpha, r), map(sb.alpha, r), max_depth)
        if bound <= 1 - 2 * epsilon:
            probe = gap(mu, nu, _PROBE_DEPTH)
            return Inconclusive(probe, _PROBE_DEPTH, "affinity bound excludes a certificate")
    best, best_depth = ZERO, 0
    for d in range(1, max_depth + 1):
        mu_a, nu_a = _masses_above(mu, nu, d)
        if nu_a - mu_a >= best:
            best, best_depth = nu_a - mu_a, d
        if mu_a < epsilon and nu_a > 1 - epsilon:
            if 1 << d > _CELL_LIMIT:
                raise BudgetExceeded(
                    f"certificate exists at depth {d} but its cell family "
                    f"is too large to materialize"
                )
            level = next(islice(_levels(nu, bool), d, None))
            cells = [s for s in level if nu._read(s) > mu._read(s)]
            return OrthoCertificate(epsilon, d, CylinderFamily(cells), mu_a, nu_a)
    return Inconclusive(best, best_depth)


class Modulus(Record):
    """Least scanned level at which every cylinder has mass < epsilon."""

    n: int


class AtomWitness(Record):
    """A branch holding mass > epsilon all the way to the scan horizon."""

    prefix: str
    epsilon: Fraction
    mass: Fraction


def continuity_modulus(mu, epsilon, max_depth):
    """Non-atomicity evidence: the first level where all cylinder masses drop
    below epsilon, or a surviving heavy branch at the horizon.

    Masses only shrink along branches, so it suffices to track the frontier
    of cells with mass >= epsilon (there are at most 1/epsilon of them)."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    check_natural(max_depth, "max_depth")
    for n, level in enumerate(islice(_levels(mu, epsilon.__le__), max_depth + 1)):
        frontier = list(level)
        if not frontier:
            return Modulus(n)
    for s in frontier:
        if mu._read(s) > epsilon:
            return AtomWitness(s, epsilon, mu._read(s))
    return Inconclusive(detail="mass exactly epsilon at the horizon")


class RefutationWitness(Record):
    """Stage-wise refutation of absolute continuity: families of tiny nu-mass
    but mu-mass bounded below."""

    epsilon: Fraction
    stages: tuple  # of (delta, CylinderFamily)


def refute_abs_continuity(mu, nu, epsilon, stages, max_depth):
    """For each dyadic budget ``delta_j = 2**-j`` greedily pack depth-d cells
    of maximal mu-mass under a strict nu-mass budget; a stage succeeds when
    the packed mu-mass reaches epsilon."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if check_natural(stages, "stages") == 0:
        raise ValueError("stages must be at least 1")
    check_natural(max_depth, "max_depth")

    def rank(s):  # cells of zero nu-mass first, then by decreasing mu/nu
        v = nu._read(s)
        return (1, ZERO) if v == 0 else (2, -mu._read(s) / v)

    levels = islice(_levels(mu, bool), 1, None)  # cells of positive mu-mass
    ranked = []  # levels 1, 2, ... in rank order, shared by every stage
    found = []
    for j in range(1, stages + 1):
        delta = Fraction(1, 1 << j)
        for d in range(max_depth):
            if d == len(ranked):  # the first stage to reach a level walks and ranks it
                cells = list(islice(next(levels), _CELL_LIMIT + 1))
                if len(cells) > _CELL_LIMIT:
                    break  # too many positive cells to sweep deeper
                ranked.append(sorted(cells, key=rank))
            taken, nu_total, mu_total = [], ZERO, ZERO
            for s in ranked[d]:
                v = nu._read(s)
                if nu_total + v < delta:
                    taken.append(s)
                    nu_total += v
                    mu_total += mu._read(s)
                    if mu_total >= epsilon:
                        break
            if mu_total >= epsilon:
                found.append((delta, CylinderFamily(taken)))
                break
        if len(found) < j:
            return Inconclusive(detail=f"stage delta=2**-{j} failed within depth {max_depth}")
    return RefutationWitness(epsilon, tuple(found))


class Failure(Record):
    """No candidate was orthogonal to the whole family; best gap seen per
    rejected candidate."""

    best_gaps: tuple  # of (candidate, best_gap, at_depth)


class Extension(Record):
    code: object
    certificates: tuple
    candidate_index: int


def extend_family(family, candidates, epsilon, max_depth, recheck=True):
    """First product-measure candidate carrying an orthogonality certificate
    against every family member, with all certificates."""
    _check_epsilon(epsilon)
    check_natural(max_depth, "max_depth")
    if recheck:
        for i, j in combinations(range(len(family)), 2):
            res = ortho_certificate(family[i], family[j], epsilon, max_depth)
            if not isinstance(res, OrthoCertificate):
                raise ValueError(
                    f"family members {i} and {j} are not certified "
                    f"orthogonal at tolerance {epsilon}"
                )
    best_gaps = []
    for idx, x in enumerate(candidates):
        cand = product_code(ks_schedule(x))
        certs = []
        for member in family:
            res = ortho_certificate(member, cand, epsilon, max_depth)
            if isinstance(res, OrthoCertificate):
                certs.append(res)
            else:
                best_gaps.append((x, res.best_gap, res.at_depth))
                break
        else:
            return Extension(cand, tuple(certs), idx)
    return Failure(tuple(best_gaps))


class FamilyBuildResult(Record):
    measures: tuple
    certificates: tuple  # OrthoCertificate per (earlier member, new member) pair
    failure: object  # Failure when the build stopped early, else None


def build_family(count, epsilon, max_depth, candidates=None):
    """Iterate extend_family from the empty family, taking each candidate once,
    in order, until ``count`` members are found.  The family only grows and
    each candidate is checked against the members in order, so a candidate
    refused once is refused again, at the same member with the same gap, by
    every later family: a second look at it would change nothing.  ``Failure``
    lists the refused candidates in order."""
    check_natural(count, "count")
    _check_epsilon(epsilon)
    check_natural(max_depth, "max_depth")
    if candidates is None:
        candidates = perfect_family(max(2 * count, 16))
    measures, certificates, best_gaps = [], [], []
    for x in candidates:
        if len(measures) == count:
            break
        result = extend_family(measures, [x], epsilon, max_depth, recheck=False)
        if isinstance(result, Failure):
            best_gaps += result.best_gaps
        else:
            measures.append(result.code)
            certificates += result.certificates
    failure = Failure(tuple(best_gaps)) if len(measures) < count else None
    return FamilyBuildResult(tuple(measures), tuple(certificates), failure)
