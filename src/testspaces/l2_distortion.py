"""Minimum distortion into Euclidean space via semidefinite feasibility plus
bisection, and the fork-selection self-improvement pipeline.

The feasibility problem for distortion c: find a Gram matrix Q >= 0 with
d(i,j)^2 <= Q_ii + Q_jj - 2 Q_ij <= c^2 d(i,j)^2 for all pairs.  It is solved
by alternating projection: clip the pair constraints (a Jacobi sweep), then
project onto the PSD cone by eigenvalue clipping.  A probe that stops
improving is "stalled": its best residual fell by no more than STALL_REL,
relative, over the last STALL_WINDOW = 25 iterations.  The window slides:
it is checked after every iteration past the first 25, so the earliest
verdict comes at iteration 26.  Between disjoint convex sets the residual
settles at their gap distance (Bauschke-Borwein 1994), and here it settles
early; a stall is not a certificate, and the bisection treats it as
infeasible.  At the first iteration the negative eigenspace of the swept
iterate may give an exact certificate instead (Linial-London-Rabinovich
1995): a probe that it proves impossible is "infeasible".  Each probe
allocates its n x n work buffers once and writes every step of the loop
into them, and it takes the eigendecomposition straight from the LAPACK
gufunc behind `np.linalg.eigh` (`numpy.linalg._umath_linalg.eigh_lo`, the
same bits without the wrapper's checks), or from `np.linalg.eigh` itself
when that private name is missing.
The fork gap behind the self-improvement bound is the Hilbert-space one, in
closed form and rounded outward.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .embeddings import DistortionReport, Embedding, NormedTarget, distortion
from .errors import UndecidedError, ValidationError
from .generators import binary_tree, tree_labels
from .metric_core import INT64_MAX, MetricSpace, apsp, check_int, read_only

STALL_REL = 1e-9
STALL_WINDOW = 25
FEAS_TOL = 1e-7  # the residual at which a probe is feasible
MAX_ITER_DEFAULT = 50_000
WITNESS_GRID = 4096  # an infeasibility witness's largest entry, before centering


@dataclass(frozen=True)
class GramCertificate:
    Q: np.ndarray
    c: float
    max_psd_violation: float
    max_constraint_violation: float


@dataclass(frozen=True)
class InfeasibilityWitness:
    """P = A A^T, with A an integer n x r array whose columns sum to 0, is
    PSD with P 1 = 0, so every embedding x has sum P_ij |x_i - x_j|^2 <= 0
    (Linial-London-Rabinovich 1995).  Over the pairs i != j, with d(i,j)
    <= |x_i - x_j| <= c d(i,j), this gives c^2 >= `bound` = sum_{P > 0}
    P_ij d(i,j)^2 / sum_{P < 0} -P_ij d(i,j)^2, exact."""

    A: np.ndarray
    bound: Fraction


@dataclass(frozen=True)
class SdpOutcome:
    status: str  # "feasible" | "infeasible" | "stalled" | "undecided"
    certificate: Optional[GramCertificate]
    iterations: int
    residual: float  # the certificate's when feasible, else the best one seen
    witness: Optional[InfeasibilityWitness] = None  # when infeasible


try:  # the LAPACK gufunc inside np.linalg.eigh, without the wrapper's checks
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:  # a numpy without the private name takes the public route
    _eigh_lo = None


def _eigh(Q: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of the symmetric float64 Q from its lower triangle, w ascending:
    the bits np.linalg.eigh returns.  The gufunc writes into `out`, the
    fallback allocates.  A LAPACK failure fills w and V with NaN (the
    gufunc, under sdp_feasible's errstate) or raises LinAlgError (the
    fallback)."""
    if _eigh_lo is None:
        return np.linalg.eigh(Q)
    return _eigh_lo(Q, signature="d->dd", out=out)


def _distance_squares(space: MetricSpace) -> np.ndarray:
    """d(i, j)^2 as the correctly rounded square of each float distance."""
    return space.floats() ** 2


def _infeasibility_witness(
    space: MetricSpace, D2: np.ndarray, c: float, w: np.ndarray, V: np.ndarray
) -> Optional[InfeasibilityWitness]:
    """A witness that no embedding has distortion <= c, built from the
    negative eigenpairs (w, V) of a swept iterate, or None.  B = V_-
    sqrt(-w_-) is screened in floats, centered; a B that passes is rounded
    to integers of magnitude <= WITNESS_GRID and centered exactly, A = n B
    - 1 (1^T B), and the bound is checked on the exact distances."""
    k = int(np.searchsorted(w, 0.0))  # w ascends: w[:k] < 0
    B = V[:, :k] * np.sqrt(-w[:k])
    centered = B - B.mean(axis=0)
    # the P > 0 part minus the P < 0 part, and their sum (the diagonal, 0
    # in a metric, only screens)
    weighted = (centered @ centered.T) * D2
    net, total = weighted.sum(), np.abs(weighted).sum()
    if total + net <= c * c * (total - net):
        return None
    n, r = B.shape
    if r * (2 * n * WITNESS_GRID) ** 2 > INT64_MAX:  # P's entries would overflow
        return None
    Bi = np.rint(WITNESS_GRID * B / np.abs(B).max()).astype(np.int64)
    A = n * Bi - Bi.sum(axis=0)
    P = A @ A.T
    np.fill_diagonal(P, 0)
    weighted = P.astype(object) * space.num.astype(object) ** 2
    above, below = weighted[P > 0].sum(), -weighted[P < 0].sum()
    if below <= 0 or above <= Fraction(c) ** 2 * below:
        return None
    return InfeasibilityWitness(read_only(A), Fraction(int(above), int(below)))


# divergence is reported, not warned; a failed eigh_lo call raises invalid
# and may raise divide, which np.linalg.eigh catches with its own errstate
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sdp_feasible(space: MetricSpace, c: float, warm_start: np.ndarray) -> SdpOutcome:
    """Alternating-projection feasibility probe at distortion bound c, from
    the Gram matrix warm_start, at the module constants FEAS_TOL and
    MAX_ITER_DEFAULT as they read when the probe starts.

    Outcomes: "feasible" (certificate at FEAS_TOL), "infeasible" (at
    iteration 1, when not feasible there: the negative eigenspace of the
    first swept iterate gives an InfeasibilityWitness whose exact bound
    exceeds c^2), "stalled" (the best residual improved by no more than
    STALL_REL, relative, over the last STALL_WINDOW of 25 iterations,
    checked after every iteration past the first window, so the earliest
    verdict is at iteration 26; treated as infeasible at this c, though it
    proves nothing), "undecided" (iteration cap hit while still
    progressing, a non-finite start or iterate, or an eigendecomposition
    that fails or is not finite: the projections can diverge, and that
    decides nothing about c).  A stalled or undecided outcome reports the
    best residual seen, not the last one, which a diverging probe inflates.

    Past the first iteration the loop allocates no array on the gufunc
    route: every step writes into buffers made once per probe, with the
    floating-point operations, in their order, of Q = (dd - clip(E, lo,
    hi)) / 2, Q = V max(w, 0) V^T and the rest written with temporaries, so
    the outcome is bit for bit theirs.
    """
    if not 1 <= c < math.inf:
        raise ValidationError("distortion bound must be finite and >= 1")
    tol, max_iter = FEAS_TOL, MAX_ITER_DEFAULT
    n = space.size
    D2 = _distance_squares(space)
    # d(i, i) = 0 makes both bounds 0 on the diagonal, where E(Q) is exactly
    # 0 for finite Q: the sweep keeps diag(Q) as it is
    lo, hi = D2, (c * c) * D2
    Q = np.array(warm_start, dtype=np.float64, order="C")

    def undecided(it: int) -> SdpOutcome:
        return SdpOutcome("undecided", None, it, best_residual)

    # Q is the iterate, dd the diagonal sums, E the pair table E(Q), S scratch
    dd, E, S = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    eig = np.empty(n), np.empty((n, n))
    diag = Q.diagonal()  # views that follow every write into Q
    col, row, QT = diag[:, None], diag[None, :], Q.T
    best_residual = math.inf
    # the best residuals of the last STALL_WINDOW iterations, oldest first
    window = deque(maxlen=STALL_WINDOW)
    it = 0
    # each residual step hands its diagonal sums and pair table to the next sweep
    np.add(col, row, out=dd)
    np.subtract(dd, np.multiply(2.0, Q, out=E), out=E)
    while it < max_iter:
        it += 1
        # pair-constraint sweep: Q = (dd - clip(E, lo, hi)) / 2
        np.maximum(E, lo, out=E)
        np.minimum(E, hi, out=E)
        np.divide(np.subtract(dd, E, out=Q), 2.0, out=Q)
        if it == 1:
            # later sweeps start from a finite, symmetric PSD iterate
            if not np.isfinite(Q).all():
                return undecided(it)
            if not np.array_equal(Q, QT):
                np.divide(np.add(Q, QT, out=S), 2.0, out=Q)
        # PSD projection: Q = V max(w, 0) V^T, symmetrized
        try:
            w, V = _eigh(Q, eig)
        except np.linalg.LinAlgError:
            return undecided(it)
        # w ascends, so its ends bound it; a failed eigh_lo fills it with NaN
        if not (math.isfinite(w[0]) and math.isfinite(w[-1])):
            return undecided(it)
        psd_violation = max(0.0, float(-w[0]))
        witness = _infeasibility_witness(space, D2, c, w, V) if it == 1 and w[0] < 0 else None
        np.maximum(w, 0.0, out=w)
        np.matmul(np.multiply(V, w, out=S), V.T, out=Q)
        np.divide(np.add(Q, QT, out=S), 2.0, out=Q)
        # residual: how far the PSD iterate is from the pair constraints
        np.add(col, row, out=dd)
        np.subtract(dd, np.multiply(2.0, Q, out=E), out=E)
        below = float(np.maximum.reduce(np.subtract(lo, E, out=S), axis=None))
        above = float(np.maximum.reduce(np.subtract(E, hi, out=S), axis=None))
        if not (math.isfinite(below) and math.isfinite(above)):
            return undecided(it)
        constraint_violation = max(0.0, below, above)
        residual = max(constraint_violation, psd_violation)
        if residual <= tol:
            return SdpOutcome(
                "feasible",
                GramCertificate(Q, c, psd_violation, constraint_violation),
                it,
                residual,
            )
        best_residual = min(best_residual, residual)
        if witness is not None:
            return SdpOutcome("infeasible", None, it, best_residual, witness)
        if len(window) == STALL_WINDOW:  # window[0] is the best at it - STALL_WINDOW
            if window[0] - best_residual <= STALL_REL * max(best_residual, 1e-300):
                return SdpOutcome("stalled", None, it, best_residual)
        window.append(best_residual)
    return undecided(it)


def embedding_from_gram(space: MetricSpace, Q: np.ndarray) -> Embedding:
    """Eigendecomposition of Q into coordinates (negative eigenvalues clipped)."""
    w, V = np.linalg.eigh((Q + Q.T) / 2.0)
    w = np.clip(w, 0.0, None)
    X = V * np.sqrt(w)
    return Embedding(space, read_only(X), NormedTarget("l2", X.shape[1]))


@dataclass(frozen=True)
class ProbeCounts:
    """The probes of one bisection by outcome, and their iterations summed."""

    feasible: int
    infeasible: int
    stalled: int
    undecided: int
    iterations: int


@dataclass(frozen=True)
class L2Result:
    c_star: float
    embedding: Embedding
    report: DistortionReport
    bracket: tuple[float, float]
    undecided_probes: tuple[float, ...]
    probes: int
    counts: ProbeCounts
    lower_bound: Fraction  # the largest certified bound on c_2^2, 1 when none


def min_distortion_l2(space: MetricSpace, tol: float = 1e-4) -> L2Result:
    """Bisection over sdp_feasible, each probe at FEAS_TOL and
    MAX_ITER_DEFAULT; the returned c_star is the feasible end of the final
    bracket, and the embedding is reconstructed from its Gram certificate.
    An infeasible probe moves the bracket as a stalled one does, and its
    witness's bound raises `lower_bound`.  `counts` tallies every probe,
    the bracket top's included."""
    # NaN fails every comparison: `tol <= 0` would let it through, and the
    # bisection would never reach `hi - lo <= tol`
    if not 0 < tol < math.inf:
        raise ValidationError("tolerance must be finite and > 0")
    if space.size < 2:
        raise ValidationError("need at least 2 points")

    # scale to unit diameter for well-conditioned tolerances
    diam = Fraction(int(space.num.max()), space.scale)
    if diam == 0:
        raise ValidationError("min_distortion_l2 needs a pair at positive distance")
    scaled = space.scaled(1 / diam)

    # guaranteed-feasible upper bound: the Frechet rows read as l2 vectors
    fre = read_only(scaled.floats())
    hi_rep = distortion(Embedding(scaled, fre, NormedTarget("l2", space.size)))
    hi = float(hi_rep.distortion) * (1.0 + 1e-9) + 1e-9
    X = fre / float(hi_rep.lip)
    warm = X @ X.T

    out = sdp_feasible(scaled, hi, warm)
    if out.status != "feasible":
        # the warm start fre / lip is contractive, not feasible: C_5 and C_9 stall
        raise UndecidedError(f"solver failed at the guaranteed bracket top {hi}")
    best, undecided, lower_bound = out.certificate, [], Fraction(1)
    runs = [(out.status, out.iterations)]

    # c = 1 first, then bisection while the bracket is wider than tol
    lo = mid = 1.0
    while True:
        out = sdp_feasible(scaled, mid, best.Q)
        runs.append((out.status, out.iterations))
        if out.status == "feasible":
            hi, best = mid, out.certificate
        else:
            lo = mid
            if out.status == "undecided":
                undecided.append(mid)
            if out.witness is not None:
                lower_bound = max(lower_bound, out.witness.bound)
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)

    emb_scaled = embedding_from_gram(scaled, best.Q)
    emb = Embedding(space, read_only(emb_scaled.table * float(diam)), emb_scaled.target)
    statuses = [status for status, _ in runs]
    counts = ProbeCounts(
        *map(statuses.count, ("feasible", "infeasible", "stalled", "undecided")),
        sum(iterations for _, iterations in runs),
    )
    return L2Result(hi, emb, distortion(emb), (lo, hi), tuple(undecided), len(runs), counts, lower_bound)


# ---------------------------------------------------------------------------
# Kloeckner self-improvement: fork gap, fork selection, iterated bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForkGapEstimate:
    D: float
    K: float  # gap * D, the constant of kloeckner_bound
    gap: float  # guaranteed per-round distortion improvement K / D
    worst_min_norm: float  # sup over feasible forks of min(|x2|, |x2'|)
    feasible: bool


def _fork_sup_upper(D: Fraction) -> float:
    """A float s >= sqrt(2 D^2 + 2 D sqrt(D^2 - 1)): the float formula,
    stepped up one ulp at a time until s^2 - 2 D^2 >= 0 and
    (s^2 - 2 D^2)^2 >= 4 D^2 (D^2 - 1) hold exactly."""
    d = float(D)
    s = math.sqrt(2.0 * d * d + 2.0 * d * math.sqrt(d * d - 1.0))
    while True:
        excess = Fraction(s) ** 2 - 2 * D * D
        if excess >= 0 and excess * excess >= 4 * D * D * (D * D - 1):
            return s
        s = math.nextafter(s, math.inf)


def fork_gap_estimate(D: float) -> ForkGapEstimate:
    """Hilbert-space fork gap in closed form, rounded outward.

    Over D-Lipschitz non-contractive images of the fork (x0 = 0), the
    parallelogram law gives sup min(|x2|, |x2'|) = sqrt(2 D^2 + 2 D
    sqrt(D^2 - 1)) = sqrt((D + sqrt(D^2 - 1))^2 + 1), attained with
    |x1| = D, |x2 - x1| = |x2' - x1| = D and |x2 - x2'| = 2.  The gap is
    D - sup/2, scaled to K = gap * D.  The reported sup is a float
    certified in exact arithmetic to lie at or above the true value, and
    the gap is rounded down from it, so the gap never overstates the
    per-round improvement.

    Such forks exist exactly when 3 D^2 >= 4 (D >= 2/sqrt(3)), tested on
    the exact rational value of D.  Below that, D = 1 included (an
    isometric l2 fork would force x2 = x2'), the result is feasible=False
    with gap = +inf.
    """
    if not 1 <= D <= 2**500:  # so that D^2 stays a finite float
        raise ValidationError("D must lie in [1, 2^500]")
    exact = Fraction(D)
    if 3 * exact * exact < 4:
        return ForkGapEstimate(D, math.inf, math.inf, 0.0, False)
    sup = _fork_sup_upper(exact)
    low = exact - Fraction(sup) / 2
    gap = float(low)
    if gap > low:
        gap = math.nextafter(gap, -math.inf)
    # sup < 2D, so 0 is always a valid lower bound
    gap = max(gap, 0.0)
    return ForkGapEstimate(D, gap * D, gap, sup, True)


def kloeckner_bound(n: int, K: float) -> float:
    """Least D >= 1 with D - floor(log2 n) * K / D >= 1, that is the root of
    D^2 - D - bK = 0 (b = floor(log2 n)), as a float rounded down: the
    closed-form root is stepped down one ulp at a time until
    D (D - 1) <= bK holds exactly, so it never overstates the lower bound."""
    check_int(n, 1, "depth must be an int >= 1")
    if not 0 < K < math.inf:
        raise ValidationError("need finite K > 0")
    budget = int(math.floor(math.log2(n))) if n > 1 else 0
    if budget == 0:
        return 1.0
    D = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * budget * K))
    while Fraction(D) * (Fraction(D) - 1) > budget * Fraction(K):
        D = math.nextafter(D, -math.inf)
    return D


def normalize_noncontractive(emb: Embedding) -> tuple[Embedding, DistortionReport]:
    """Rescale so every pair satisfies d <= ||df||; the Lipschitz constant of
    the result equals the original distortion."""
    rep = distortion(emb)
    scaled = emb.rescaled(float(rep.colip))
    return scaled, distortion(scaled)


@dataclass(frozen=True)
class ForkSelection:
    selected_labels: tuple[str, ...]
    new_labels: tuple[str, ...]  # labels in T_{floor(n/2)}
    embedding: Embedding  # on the half-distance selected space
    input_report: DistortionReport
    report: DistortionReport
    improvement: float


def fork_select(n: int, emb: Embedding) -> ForkSelection:
    """Kloeckner's grandchild selection on a non-contractive embedding of
    T_n: child 0 is the daughter; per selected vertex keep the grandchild
    mapped closest to it on each side (ties to the lexicographically smaller
    label).  The selected set carries half the tree distance and is exactly
    isometric to T_{floor(n/2)}.  The embedding must map into l2, the norm
    the selection measures in."""
    check_int(n, 2, "need an int depth >= 2")
    if emb.target.kind != "l2":
        raise ValidationError("fork selection needs an l2 embedding")
    space = emb.space
    if space.labels is None:
        raise ValidationError("embedding space must carry tree labels")
    index = {lab: i for i, lab in enumerate(space.labels)}
    # T_n's rows in heap order; a tree deeper than size.bit_length() has more
    # vertices than the space has points, so the clipped one misses a label too
    rows = []
    for lab in tree_labels(min(n, space.size.bit_length())):
        if lab not in index:
            raise ValidationError(f"embedding space has no point labelled {lab!r}, a vertex of T_{n}")
        rows.append(index[lab])
    rep = distortion(emb)
    if float(rep.colip) > 1.0 + 1e-9:
        raise ValidationError(
            "embedding must be non-contractive: rescale vectors by the colipschitz "
            "constant first (see normalize_noncontractive)"
        )
    images = emb.entries.floats()

    # vertex w of T_{n//2} is vertex picks[w] of T_n; below each child c of
    # picks[w], the nearer grandchild 2c + 1 or 2c + 2 (ties to the first)
    # is picked, so the picks arrive in T_{n//2}'s heap order
    tree = apsp(binary_tree(n // 2))
    picks = [0]
    for v in (picks[w] for w in range(2 ** (n // 2) - 1)):  # T_{n//2}'s internal vertices
        base = images[rows[v]]
        for c in (2 * v + 1, 2 * v + 2):
            d0, d1 = (np.linalg.norm(images[rows[h]] - base) for h in (2 * c + 1, 2 * c + 2))
            picks.append(2 * c + 1 if d0 <= d1 else 2 * c + 2)

    idxs = [rows[h] for h in picks]
    half_space = MetricSpace(space.restrict(idxs).table.rescaled(Fraction(1, 2)), 1, tree.labels)
    sub = Embedding(half_space, read_only(emb.table[idxs]), emb.target, emb.scale)

    # structural exactness: half distances must equal T_{floor(n/2)} distances
    if half_space != tree:
        raise ValidationError("selected set is not isometric to the half tree")

    sub_rep = distortion(sub)
    return ForkSelection(
        tuple(space.labels[i] for i in idxs),
        tree.labels,
        sub,
        rep,
        sub_rep,
        float(rep.distortion) - float(sub_rep.distortion),
    )
