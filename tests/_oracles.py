"""Independent oracles used only by tests.

Each one recomputes a quantity by a route disjoint from the library code it
checks: Floyd-Warshall (numpy min-plus steps) and Fraction-valued Dijkstra
for shortest paths, the flat-pair breadth-first sweep for hop counts,
nested Fraction tuples for subspaces and rescaled metrics, Nelder-Mead
coordinate search for optimal euclidean distortion, full outcome
enumeration for the short downward tree walk and a Fraction term table
for the longer ones, dense Fraction matrix powers for the
Markov convexity sums, Fraction transition rows converted to a chain's
integer table for the built-in walks, every (k, t) term re-simulated
from time 0 on its own substream for their Monte Carlo estimate and for the
tree walk's (child choices as bits), a scan of every padded column for the
Monte Carlo step (and each block drawn whole, in int64 states and
full-width sums, for the chunked estimators), word-product enumeration for
Heisenberg balls, one edge record and one chain tuple per vertex, in
Python, for the diamond and Laakso construction, plain loops over entries
for norms and over pairs and triples for distortion, vertex-map distortion and the metric axioms, an
exact knockout tournament for the first maximal ratio, a table rebuilt
from nested tuples on every call for the distortion of stored vectors,
per-entry products for rescaling, the
label-prefix formula for tree distances, a sum of one Fraction per letter
and a sort for the Bourgain labeling, sorted signed ancestor coordinates
and their running sums for the Bourgain distortion (and the sweep over
every label pair in blocks that its pair classes replace), one Fraction per
(vector, j) for the James grid, the original alternating-projection loop
for the SDP feasibility probe, a depth-first search on Fraction lengths for
geodesics, one Fraction or float per entry (and csv.writer) for the file
formats, a multi-start SLSQP search for the Hilbert fork gap, every vertex map
(collapsing ones included) for the cycle-into-trees search,
a loop over candidates for the thickness constant (and a pass per
parameter for the geodesic pair tables it reads, and a scan of the
deviation profile for the oracle's bubbles), a dense Fraction
tableau for the exact simplex, and for the RNP pipeline: Fraction sums per
vector for the delta-tree and bush checks, one Fraction tuple entry per
(vertex, quadrilateral) for the tent embedding, a scan of the blocks for
each broken-line segment's parent, Fraction slopes, jumps and interval
scans for the martingale levels (and a geodesic's vertex at a grid
parameter), and the artificial phase 1 for the gauge.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def floyd_warshall(n, edges):
    """Exact all-pairs shortest paths; edges are (u, v, Fraction).  The
    Floyd-Warshall recurrence in numpy: int64 numerators over the lcm of the
    edge denominators, one vectorized min-plus step per k, and an explicit
    mask of reached pairs.  Returns Fractions, None where unreachable."""
    scale = math.lcm(*(Fraction(w).denominator for _, _, w in edges))
    nums = [(u, v, int(Fraction(w) * scale)) for u, v, w in edges]
    # every shortest path is a simple path, so its numerator is at most the total
    assert sum(abs(w) for _, _, w in nums) < 2**62, "edge numerators too large for int64"
    dist = np.zeros((n, n), dtype=np.int64)
    reached = np.eye(n, dtype=bool)
    for u, v, w in nums:
        if not reached[u, v] or w < dist[u, v]:
            dist[u, v] = dist[v, u] = w
            reached[u, v] = reached[v, u] = True
    for k in range(n):
        via = reached[:, k, None] & reached[None, k, :]
        cand = dist[:, k, None] + dist[None, k, :]
        better = via & (~reached | (cand < dist))
        dist = np.where(better, cand, dist)
        reached |= via
    return [
        [Fraction(int(dist[i, j]), scale) if reached[i, j] else None for j in range(n)]
        for i in range(n)
    ]


def flat_pair_hop_counts(graph):
    """Edge counts of the shortest paths between all pairs, as an n x n int64
    table with -1 where unreachable, by a breadth-first sweep over flat
    (source, vertex) pairs, not over packed source sets.  Level 1 is the
    arcs themselves; each later round expands the pairs reached last
    through the graph's CSR arcs, and de-duplicates the candidates by
    stamping a distinct mark level << shift | i into each one's slot and
    keeping the copy that reads its own mark back."""
    n, tails, deg = graph.size, graph.targets, np.diff(graph.indptr)
    end = graph.indptr[1:]  # arcs end[v] - deg[v] ... end[v] - 1 leave v
    heads = np.arange(n).repeat(deg)
    step = tails - heads  # the arc v -> w takes pair (s, v) to (s, w) = flat + w - v
    shift = (n * tails.size).bit_length()  # a level stamps fewer than n * 2|E| pairs
    hops = np.full(n * n, -1, dtype=np.int64)
    hops[:: n + 1] = 0
    frontier = heads * n + tails
    hops[frontier] = 1 << shift
    left, level = n * n - n - frontier.size, 1
    while left and frontier.size:
        level += 1
        vert = frontier % n
        d = deg[vert]
        top = d.cumsum()
        arcs = (end[vert] - top).repeat(d) + np.arange(top[-1])
        cand = frontier.repeat(d) + step[arcs]
        cand = cand[hops[cand] < 0]
        mark = np.arange(level << shift, (level << shift) + cand.size)
        hops[cand] = mark
        frontier = cand[hops[cand] == mark]
        left -= frontier.size
    return (hops >> shift).reshape(n, n)  # -1 stays -1


def adjacency(graph):
    """Each vertex's (neighbour, length) pairs, read from the graph's edges
    (not from its CSR table)."""
    adj = [[] for _ in graph.vertices]
    for u, v, w in graph.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra_fractions(adj, src):
    """Single-source distances by Dijkstra on adjacency lists of (vertex,
    length), ints or Fractions; None marks an unreachable vertex."""
    import heapq

    dist = [None] * len(adj)
    heap = [(Fraction(0), src)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is None:
            dist[u] = d
            for v, w in adj[u]:
                if dist[v] is None:
                    heapq.heappush(heap, (d + w, v))
    return dist


def apsp_fraction_rows(graph):
    """Shortest-path table as nested tuples of Fractions, by Dijkstra on the
    Fraction edge lengths themselves (the representation the library kept
    before it stored integer numerators)."""
    adj = adjacency(graph)
    return tuple(tuple(dijkstra_fractions(adj, src)) for src in range(graph.size))


def restrict_rows(rows, indices):
    """The subtable on the given points, in the given order."""
    return tuple(tuple(rows[i][j] for j in indices) for i in indices)


def scaled_rows(rows, factor):
    """Every entry times factor."""
    return tuple(tuple(d * factor for d in row) for row in rows)


def min_l2_distortion_points(dist_table, dim, seed=7, starts=12, maxiter=20000):
    """Direct coordinate-descent (Nelder-Mead) minimization of distortion
    over point configurations in R^dim."""
    from scipy.optimize import minimize

    n = len(dist_table)
    D = [[float(x) for x in row] for row in dist_table]

    def objective(flat):
        X = flat.reshape(n, dim)
        rmax, rmin = 0.0, np.inf
        for i in range(n):
            for j in range(i + 1, n):
                r = np.linalg.norm(X[i] - X[j]) / D[i][j]
                rmax = max(rmax, r)
                rmin = min(rmin, r)
        if rmin == 0:
            return np.inf
        return rmax / rmin

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(n * dim)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
        )
        best = min(best, res.fun)
    return best


def tree_walk_m1_exact(p):
    """Full enumeration of every (path, split-path) outcome of the downward
    walk on T_2 (horizon 2), for the truncated convexity sums."""

    def tree_dist(u, v):
        k = 0
        for a, b in zip(u, v):
            if a != b:
                break
            k += 1
        return (len(u) - k) + (len(v) - k)

    T, kmax = 2, 1
    lhs = Fraction(0)
    for k in range(kmax + 1):
        for t in range(1, T + 1):
            s = max(t - 2**k, 0)
            acc = Fraction(0)
            for stem in itertools.product((0, 1), repeat=s):
                for ba in itertools.product((0, 1), repeat=t - s):
                    for bb in itertools.product((0, 1), repeat=t - s):
                        prob = Fraction(1, 2 ** (s + 2 * (t - s)))
                        acc += prob * Fraction(tree_dist(stem + ba, stem + bb)) ** p
            lhs += acc / Fraction(2) ** (k * p)
    rhs = Fraction(T)
    return lhs, rhs


def tree_walk_convexity_f_table(m, p):
    """(lhs, rhs) of the downward walk on T_{2^m} from a table of
    F[w] = sum_{i<=w} 2^(i-1) (2i)^p as Fractions and one Fraction term
    F[j] / 2^j / 2^(kp) per (k, t), j = t - max(t - 2^k, 0): the library's
    evaluator before it became one integer pass."""
    T = 2**m
    kmax = math.ceil(math.log2(T)) if T > 1 else 0
    F = [Fraction(0)]
    for i in range(1, T + 1):
        F.append(F[-1] + Fraction(2) ** (i - 1) * (2 * i) ** p)
    lhs = Fraction(0)
    for k in range(kmax + 1):
        for t in range(1, T + 1):
            j = t - max(t - 2**k, 0)
            lhs += Fraction(F[j], 2**j) / Fraction(2) ** (k * p)
    return lhs, Fraction(T)


def heisenberg_ball_by_words(r):
    """All elements reachable by words of length <= r, with word lengths,
    by direct product enumeration (no BFS)."""

    def mul(g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    gens = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    lengths = {(0, 0, 0): 0}
    layer = {(0, 0, 0)}
    for step in range(1, r + 1):
        layer = {mul(g, s) for g in layer for s in gens}
        for g in layer:
            lengths.setdefault(g, step)
    return lengths


def chain_from_rows(rows, start, horizon):
    """The MarkovChain of transition rows: rows[u] holds the (v, P(u, v))
    pairs with P(u, v) > 0 an int or Fraction, v strictly increasing,
    summing to exactly 1.  The rows are turned into one CSR table of
    integer weights over the lcm of their denominators (int64 where the
    running sums fit, else Python ints); a probability that is no int or
    Fraction is refused with its row, and the chain's constructor refuses
    the rest."""
    from testspaces.errors import ValidationError
    from testspaces.markov import MarkovChain
    from testspaces.metric_core import RationalTable

    n = len(rows)
    moves = list(itertools.chain.from_iterable(rows))
    indptr = np.array([0, *itertools.accumulate(map(len, rows))])
    # -1 marks a target that is no int in range(n), for the constructor to refuse
    targets = np.array([v if type(v) is int and 0 <= v < n else -1 for v, _ in moves], dtype=np.int64)
    for u, row in enumerate(rows):
        if any(type(q) is not int and not isinstance(q, Fraction) for _, q in row):
            raise ValidationError(f"row {u} has a probability that is not an int or Fraction")
    table = RationalTable([[q for _, q in moves]], 1, len(moves))  # so that the running sums fit
    return MarkovChain(indptr, targets, table.num[0], table.scale, start, horizon)


def tree_walk_rows(m):
    """Fraction rows of the downward walk on T_{2^m} (vertices in
    tree_labels order): 1/2 to each child, leaves absorbing."""
    inner, n = 2 ** 2**m - 1, 2 ** (2**m + 1) - 1
    half = Fraction(1, 2)
    return tuple(((2 * i + 1, half), (2 * i + 2, half)) for i in range(inner)) + tuple(
        ((i, Fraction(1)),) for i in range(inner, n)
    )


def downhill_walk_rows(family):
    """Fraction rows of the downhill walk: from u != sink, 1/k to each of
    its k neighbours strictly closer to the sink; the sink is absorbing."""
    graph, space, sink = family.graph, family.metric_space(), family.sink
    rows = []
    for u in range(graph.size):
        nbrs = graph.targets[graph.indptr[u] : graph.indptr[u + 1]].tolist()
        down = sorted(v for v in nbrs if space.d(v, sink) < space.d(u, sink))
        rows.append(((u, Fraction(1)),) if u == sink else tuple((v, Fraction(1, len(down))) for v in down))
    return tuple(rows)


def lazy_path_walk_rows(T):
    """Fraction rows of the lazy path walk on 0..T: stay or move right with
    probability 1/2 each, T absorbing."""
    half = Fraction(1, 2)
    return tuple(((i, half), (i + 1, half)) for i in range(T)) + (((T, Fraction(1)),),)


def dense_exact_convexity(chain, mmap, space, p):
    """Markov convexity sums (lhs, rhs) by dense Fraction lists of P^j for
    every j <= T, pi_s, and the pair table w_j for every start state; the
    dense P is filled in from the chain's CSR moves, weights[k] / D."""
    n = chain.n_states
    T = chain.horizon
    kmax = math.ceil(math.log2(T)) if T > 1 else 0
    P = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        for k in range(chain.indptr[u], chain.indptr[u + 1]):
            P[u][chain.targets[k]] = Fraction(int(chain.weights[k]), chain.D)
    at = mmap.point_of_state
    dp = [[space.d(at[a], at[b]) ** p for b in range(n)] for a in range(n)]

    powers = [None, P]
    for _ in range(2, T + 1):
        prev = powers[-1]
        powers.append(
            [
                [
                    sum((prev[u][m] * P[m][v] for m in range(n) if prev[u][m]), Fraction(0))
                    for v in range(n)
                ]
                for u in range(n)
            ]
        )

    start_row = [Fraction(0)] * n
    start_row[chain.start] = Fraction(1)
    pi = [start_row]
    for s in range(1, T + 1):
        prev = pi[-1]
        pi.append(
            [
                sum((prev[u] * P[u][v] for u in range(n) if prev[u]), Fraction(0))
                for v in range(n)
            ]
        )

    w = [None] + [
        [
            sum(
                (
                    powers[j][u][a] * powers[j][u][b] * dp[a][b]
                    for a in range(n)
                    if powers[j][u][a]
                    for b in range(n)
                    if powers[j][u][b] and dp[a][b]
                ),
                Fraction(0),
            )
            for u in range(n)
        ]
        for j in range(1, T + 1)
    ]

    lhs = Fraction(0)
    for k in range(kmax + 1):
        denom = Fraction(2) ** (k * p)
        for t in range(1, T + 1):
            s = max(t - 2**k, 0)
            j = t - s
            term = sum((pi[s][u] * w[j][u] for u in range(n) if pi[s][u]), Fraction(0))
            lhs += term / denom

    rhs = Fraction(0)
    for t in range(1, T + 1):
        rhs += sum(
            (
                pi[t - 1][u] * P[u][v] * dp[u][v]
                for u in range(n)
                if pi[t - 1][u]
                for v in range(n)
                if P[u][v] and dp[u][v]
            ),
            Fraction(0),
        )
    return lhs, rhs


def _rng_for(seed, tag, k, t):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, k, t]))


def _mc_window(seed, tag, k_max, T, p, sample):
    """Sum over k <= k_max and t = 1..T of 2^{-kp} times the sample mean of
    sample(rng, s, t), s = max(t - 2^k, 0) the split time, each term drawn
    from its own (seed, tag, k, t) substream; returns the sum and its
    variance."""
    total = 0.0
    var = 0.0
    for k in range(k_max + 1):
        w = 2.0 ** (-k * p)
        for t in range(1, T + 1):
            vals = sample(_rng_for(seed, tag, k, t), max(t - 2**k, 0), t)
            total += w * float(vals.mean())
            var += (w * w) * float(vals.var(ddof=1) if vals.size > 1 else 0.0) / vals.size
    return total, var


def linear_sim_tables(chain):
    """Row u's targets and running probability sums, padded with its last
    move to the largest out-degree: the tables of the linear-scan stepper,
    which fix the same draws as the library's binary-search ones."""
    from testspaces.metric_core import RationalTable

    deg = np.diff(chain.indptr)
    slot = np.arange(deg.max())  # the padding repeats each row's last move
    at = np.minimum(chain.indptr[:-1, None] + slot, chain.indptr[1:, None] - 1)
    cum = RationalTable(chain.weights[None], chain.D).floats()[0][at].cumsum(axis=1)
    cum[slot >= deg[:, None] - 1] = 1  # the last move of each row and its padding
    return chain.targets[at], cum


def linear_move(states, u, nbrs, cum):
    """One step of every state (an index) on the uniforms u by a scan of
    every padded column: the move taken is the first whose running sum is
    not below u."""
    idx = states * nbrs.shape[1]
    for col in cum.T[:-1]:  # u < 1 never passes the last sum, which is 1
        idx += u > col[states]
    return nbrs.ravel()[idx]


def mc_convexity_per_term(chain, mmap, space, p, seed, samples):
    """Monte Carlo convexity sums with every (k, t) term re-simulated from
    time 0 on its own (seed, tag, k, t) substream, so the terms are
    independent and the variances add: the estimator before the library
    shared one base trajectory per sample.  Returns (lhs, rhs, lhs_stderr,
    rhs_stderr)."""
    from testspaces.markov import _k_max

    T = chain.horizon
    nbrs, cum = linear_sim_tables(chain)
    at = list(mmap.point_of_state)
    dpow = np.array([[x**p for x in row] for row in space.floats()[np.ix_(at, at)].tolist()])

    def steps(states, rng, count):
        for _ in range(count):
            states = linear_move(states, rng.random(states.size), nbrs, cum)
        return states

    def split_pair(rng, s, t):
        states = steps(np.full(samples, chain.start, dtype=np.int64), rng, s)
        a = steps(states, rng, t - s)
        b = steps(states, rng, t - s)
        return dpow[a, b]

    def one_step(rng, s, t):  # k = 0, so s = t - 1
        prev = steps(np.full(samples, chain.start, dtype=np.int64), rng, s)
        return dpow[prev, steps(prev, rng, 1)]

    lhs, lhs_var = _mc_window(seed, 1, _k_max(T), T, p, split_pair)
    rhs, rhs_var = _mc_window(seed, 2, 0, T, p, one_step)
    return lhs, rhs, math.sqrt(lhs_var), math.sqrt(rhs_var)


def tree_walk_convexity_mc_per_term(m, p, seed, samples):
    """Monte Carlo for the downward walk on T_{2^m} with every (k, t) term
    drawn on its own (seed, 1, k, t) substream: both copies simulate their
    child choices as bits for the t - s steps after the split, and the
    distance is set by the first disagreement.  The library's estimator
    before it made one geometric draw per split time.  Returns (lhs, rhs,
    lhs_stderr, rhs_stderr); every step moves distance 1, so rhs = 2^m."""
    from testspaces.markov import _k_max

    T = 2**m

    def split_pair(rng, s, t):
        j = t - s
        alive = np.ones(samples, dtype=bool)
        dist_steps = np.zeros(samples, dtype=np.int64)
        for i in range(1, j + 1):
            a = rng.integers(0, 2, samples)
            b = rng.integers(0, 2, samples)
            strike = alive & (a != b)
            dist_steps[strike] = j - i + 1
            alive &= ~strike
        vals = (2.0 * dist_steps) ** p
        vals[dist_steps == 0] = 0.0
        return vals

    lhs, lhs_var = _mc_window(seed, 1, _k_max(T), T, p, split_pair)
    return lhs, float(T), math.sqrt(lhs_var), 0.0


def mc_convexity_whole_block(chain, mmap, space, p, seed, samples):
    """The library's Monte Carlo estimate with each block drawn whole: every
    state an int64 row offset and every step's gathers and sums over all of
    the block's samples at once, as the estimator did before it moved and
    summed the samples in column chunks.  Same substreams, draw order and
    per-sample summation order, so it returns the same ConvexityEstimate."""
    from testspaces.markov import (
        _block_estimate, _check_float_powers, _check_mc_args, _move, _reached_table, _sim_tables, _split_terms
    )

    _check_mc_args(p, seed, samples)
    reach, slot, num = _reached_table(chain, mmap, space)
    T = chain.horizon
    terms = _split_terms(T)
    nbrs, cum, width = _sim_tables(chain)
    values, inverse = np.unique(num, return_inverse=True)
    positive, scale = values[values > 0], space.scale
    if positive.size:
        _check_float_powers(int(positive[0]) / scale, int(positive[-1]) / scale, p)
    dpow = np.array([(x / scale) ** p for x in values.tolist()])[inverse.reshape(len(num), -1)]
    at = np.zeros(chain.n_states * width, dtype=np.intp)
    at[reach * width] = slot

    W = np.zeros((T, T + 1))
    length = [0] * T
    for k, s, j in terms:
        W[s, j] += 2.0 ** (-k * p)
        length[s] = max(length[s], j)
    split = np.array(sorted(range(T), key=lambda s: (-length[s], s)))
    W = W[split]
    running = [sum(n >= j for n in length) for j in range(T + 1)]
    used = [int(np.flatnonzero(W[:, j]).max(initial=-1)) + 1 for j in range(T + 1)]

    def draw(rng, size):
        base = np.empty((T + 1, size), dtype=np.int64)
        base[0] = chain.start * width
        for i in range(1, T + 1):
            base[i] = _move(base[i - 1], rng.random(size), nbrs, cum, width)
        branch = base[split]
        base = at[base]  # from here on only the base's points are read
        lhs = np.zeros(size)
        for j in range(1, T + 1):
            live = branch[: running[j]]
            live[...] = _move(live, rng.random(live.shape), nbrs, cum, width)
            c = used[j]
            lhs += (W[:c, j, None] * dpow[base[split[:c] + j], at[branch[:c]]]).sum(axis=0)
        return lhs, dpow[base[:-1], base[1:]].sum(axis=0)

    return _block_estimate(p, seed, samples, T, draw)


def tree_walk_convexity_mc_whole_block(m, p, seed, samples):
    """The library's tree-walk Monte Carlo estimate with each block's (T,
    size) geometric table drawn and summed whole, as the estimator did
    before it drew the table in row groups: the same ConvexityEstimate."""
    from testspaces.markov import _block_estimate, _check_float_powers, _check_mc_args, _split_terms

    _check_mc_args(p, seed, samples)
    T = 2**m
    _check_float_powers(2.0, 2.0 * T, p)
    dpow = (2.0 * np.arange(1, T + 1)) ** p
    gain = np.zeros((T, T + 2))
    for k, s, j in _split_terms(T):
        gain[s, 1 : j + 1] += 2.0 ** (-k * p) * dpow[j - 1 :: -1]
    rows = np.arange(T)[:, None]

    def draw(rng, size):
        first = np.minimum(rng.geometric(0.5, (T, size)), T + 1)
        return gain[rows, first].sum(axis=0), np.full(size, float(T))

    return _block_estimate(p, seed, samples, T, draw)


def james_alpha_by_vectors(m, bound):
    """(empirical, witness_coeffs, witness_j) of the James grid search by one
    Fraction per (coefficient vector, j), keeping the first strict minimum
    in itertools.product order."""
    best = witness = None
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=m):
        partials = list(itertools.accumulate(coeffs))
        sup = max(abs(s) for s in partials)
        for j in range(1, m):
            den = abs(partials[j - 1]) + abs(partials[-1] - partials[j - 1])
            if den and (best is None or Fraction(sup, den) < best):
                best, witness = Fraction(sup, den), (coeffs, j)
    return best, witness[0], witness[1]


def entry_norm(target, v):
    """Norm of one vector by loops over its entries, left to right: a
    Fraction (or int) for exact entries outside l2, a float otherwise, each
    entry converted once."""
    kind = target.kind
    exact = kind != "l2" and all(isinstance(x, (int, Fraction)) for x in v)
    entries = list(v) if exact else [float(x) for x in v]
    if kind == "l2":
        total = 0.0
        for x in entries:
            total += x * x
        return math.sqrt(total)
    total = partial = best = Fraction(0) if exact else 0.0
    for x in entries:
        total += abs(x)
        partial += x
        best = max(best, abs(partial) if kind == "summing" else abs(x))
    return total if kind == "l1" else best


def pairwise_distortion(emb):
    """Distortion by the loop over pairs i < j, measuring each pair's
    difference vector with `entry_norm`; lip and colip keep the first strict
    maximum."""
    from testspaces.embeddings import DistortionReport
    from testspaces.errors import CollapsedPairError

    n = emb.space.size
    lip = None
    colip = None
    lip_w = colip_w = (0, 0)
    for i in range(n):
        for j in range(i + 1, n):
            d = emb.space.d(i, j)
            if d == 0:
                continue
            diff = tuple(a - b for a, b in zip(emb.vectors[i], emb.vectors[j]))
            dn = entry_norm(emb.target, diff)
            if dn == 0:
                raise CollapsedPairError(i, j)
            r = dn / d
            if lip is None or r > lip:
                lip, lip_w = r, (i, j)
            rinv = d / dn
            if colip is None or rinv > colip:
                colip, colip_w = rinv, (i, j)
    return DistortionReport(lip, colip, lip * colip, lip_w, colip_w)


def distortion_tuples(space, vectors, target):
    """`embeddings.distortion` as it was when an Embedding stored nested
    tuples: the rows `vectors` rebuilt into a table on every call (Python-int
    numerators, converted entry by entry, or `np.array` of floats) and
    measured by the row kernels, one difference vector per row."""
    from testspaces.embeddings import _ROW_NORMS, DistortionReport, _first_max
    from testspaces.errors import CollapsedPairError, ValidationError

    kind, n = target.kind, space.size
    if n < 2:
        raise ValidationError("distortion needs at least 2 points")
    pairs = np.triu_indices(n, 1)
    dist = space.num[pairs]
    if (dist < 0).any():
        raise ValidationError("distortion needs nonnegative distances")
    valid = dist != 0
    if not valid.any():
        raise ValidationError("distortion needs a pair at positive distance")
    exact = not isinstance(vectors[0][0], float)
    if exact and kind != "l2":
        V, v_scale = _python_int_rows(vectors)
        diffs = (V[i] - V[i + 1 :] for i in range(n - 1))
    else:
        dist = space.floats()[pairs]
        if (dist[valid] == 0).any():
            raise ValidationError("a positive distance is 0.0 in float64")
        if exact:
            # Python-int differences over Python ints: correctly rounded
            V, scale = _python_int_rows(vectors)
            diffs = (((V[i] - V[i + 1 :]) / scale).astype(float) for i in range(n - 1))
        else:
            V = np.array(vectors, dtype=float)
            diffs = (V[i] - V[i + 1 :] for i in range(n - 1))
    norms = np.concatenate([_ROW_NORMS[kind](x) for x in diffs])
    pair = lambda k: (int(pairs[0][k]), int(pairs[1][k]))
    collapsed = np.flatnonzero(valid & (norms == 0))
    if collapsed.size:
        raise CollapsedPairError(*pair(collapsed[0]))
    at = np.flatnonzero(valid)
    num, den = norms[at], dist[at]
    if norms.dtype == float:
        a, b = at[np.argmax(num / den)], at[np.argmax(den / num)]
        lip = float(norms[a]) / float(dist[a])
        colip = float(dist[b]) / float(norms[b])
    else:
        a, b = at[_first_max(num, den)], at[_first_max(den, num)]
        (norm_a, norm_b), (dist_a, dist_b) = norms[[a, b]].tolist(), dist[[a, b]].tolist()
        lip = Fraction(norm_a) * space.scale / (dist_a * v_scale)
        colip = Fraction(dist_b * v_scale) / (norm_b * space.scale)
    return DistortionReport(lip, colip, lip * colip, pair(a), pair(b))


def _python_int_rows(vectors):
    """Python-int numerators of rows of int/Fraction entries over the lcm of
    their denominators, entry by entry, as an object array, and that lcm."""
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return np.array([[x.numerator * (scale // x.denominator) for x in row] for row in rows], dtype=object), scale


def rescaled_rows(vectors, factor):
    """`Embedding.rescaled` as it was: every entry times the factor in
    Python arithmetic."""
    return tuple(tuple(x * factor for x in vec) for vec in vectors)


def first_max_knockout(num, den):
    """Index of the first maximum of num[k] / den[k] (every den[k] > 0), as
    `embeddings._first_max` first found it: a knockout compared exactly by
    cross-multiplication, where the later entry of each match wins only
    when strictly larger."""
    idx = np.arange(len(num))
    while idx.size > 1:
        m = idx.size // 2 * 2
        a, b = idx[0:m:2], idx[1:m:2]
        later = num[b] * den[a] > num[a] * den[b]
        idx = np.concatenate((np.where(later, b, a), idx[m:]))
    return int(idx[0])


def tree_label_distance(a, b):
    """Distance of two binary-tree vertices given as 0/1 labels: their
    depths less twice the depth of their lowest common ancestor."""
    common = 0
    while common < min(len(a), len(b)) and a[common] == b[common]:
        common += 1
    return len(a) + len(b) - 2 * common


def bourgain_labeling_fractions(n):
    """(psi, phi) of the depth-n Bourgain labeling: psi as a sum of one
    Fraction per letter, phi the 1-based rank of psi by sorting."""
    labels = [""] + [
        "".join(bits) for d in range(1, n + 1) for bits in itertools.product("01", repeat=d)
    ]
    psi = {
        lab: sum((Fraction(2 * int(ch) - 1, 2 ** (i + 1)) for i, ch in enumerate(lab)), Fraction(0))
        for lab in labels
    }
    ranked = sorted(labels, key=lambda L: psi[L])
    return psi, {lab: k + 1 for k, lab in enumerate(ranked)}


def bourgain_distortion_sorted(n):
    """Distortion of the depth-n Bourgain embedding over all label pairs at
    once: each pair's signed ancestor coordinates (+1 for a's, -1 for b's,
    below their common prefix) sorted by coordinate, the summing norm the
    largest |running sum|.  The first maximizing pair in (a, b) order is
    found by argmax of float ratios, exact here because norms and distances
    are at most 2n.  Memory grows with the 4^n pairs: small n only."""
    from testspaces.embeddings import DistortionReport

    _, phi = bourgain_labeling_fractions(n)
    labels = sorted(phi, key=lambda L: (len(L), L))
    # anc[a, k]: coordinate phi of a's depth-k ancestor, 0 below a's depth
    anc = np.zeros((len(labels), n + 1), dtype=np.int64)
    for a, lab in enumerate(labels):
        anc[a, : len(lab) + 1] = [phi[lab[:k]] for k in range(len(lab) + 1)]
    first, second = np.triu_indices(len(labels), 1)
    A, B = anc[first], anc[second]
    common = (A == B) & (A > 0)
    # sort key 4 * coordinate + (sign + 1); masked entries sort first with sign 0
    keys = np.concatenate(
        (np.where((A > 0) & ~common, 4 * A + 2, 1), np.where((B > 0) & ~common, 4 * B, 1)),
        axis=1,
    )
    keys.sort(axis=1)
    sup = np.abs(np.cumsum(keys % 4 - 1, axis=1)).max(axis=1)
    depth = (anc > 0).sum(axis=1) - 1
    dist = depth[first] + depth[second] - 2 * (common.sum(axis=1) - 1)
    a, b = np.argmax(sup / dist), np.argmax(dist / sup)
    lip, colip = Fraction(int(sup[a]), int(dist[a])), Fraction(int(dist[b]), int(sup[b]))
    return DistortionReport(
        lip,
        colip,
        lip * colip,
        (labels[first[a]], labels[second[a]]),
        (labels[first[b]], labels[second[b]]),
    )


_PAIR_BLOCK = 2**14  # label pairs per bourgain_pair_sweep block


def bourgain_pair_sweep(n):
    """Distortion of the depth-n Bourgain embedding by a sweep over every
    label pair a < b in (a, b) order, each pair's summing norm and distance
    by bourgain_pair_norms, in blocks of _PAIR_BLOCK pairs with lip and
    colip reduced block by block, so memory stays bounded.  Time grows with
    the 4^n pairs."""
    from testspaces.embeddings import DistortionReport, _bourgain_tree, _first_max
    from testspaces.generators import tree_labels

    tree = _bourgain_tree(n)
    lip = colip = None  # (norm, distance, pair) of the current maxima
    for first, second in _pair_blocks(tree[0].size):
        sup, dist = bourgain_pair_norms(tree, first, second)
        k = _first_max(sup, dist)
        if lip is None or sup[k] * lip[1] > lip[0] * dist[k]:
            lip = (int(sup[k]), int(dist[k]), (first[k], second[k]))
        k = _first_max(dist, sup)
        if colip is None or dist[k] * colip[0] > colip[1] * sup[k]:
            colip = (int(sup[k]), int(dist[k]), (first[k], second[k]))
    labels = tree_labels(n)
    lip_v, colip_v = Fraction(lip[0], lip[1]), Fraction(colip[1], colip[0])
    return DistortionReport(
        lip_v,
        colip_v,
        lip_v * colip_v,
        tuple(labels[a] for a in lip[2]),
        tuple(labels[a] for a in colip[2]),
    )


def bourgain_pair_norms(tree, first, second):
    """Summing norm and distance of the label pairs first[k] < second[k] of
    the Bourgain embedding, tree = (depth, bits, phi) of _bourgain_tree: the
    running sums of f(a) - f(b) climb to the length below the common prefix
    on the side with the smaller phi, then fall by the other's."""
    depth, bits, phi = tree
    da, db = depth[first], depth[second]
    # la is the bit length (frexp's exponent) of a XOR b's depth-|a| ancestor
    la = np.frexp((bits[second] >> (db - da)) ^ bits[first])[1]
    dist = db - da + 2 * la
    low = np.where(phi[first] < phi[second], la, dist - la)
    return np.maximum(low, dist - 2 * low), dist


def _pair_blocks(size):
    """Index arrays (a, b) of the pairs a < b of range(size) in (a, b)
    order, in blocks of whole rows a holding about _PAIR_BLOCK pairs."""
    start = 0
    while start < size - 1:
        stop, count = start, 0
        while stop < size - 1 and count < _PAIR_BLOCK:
            count += size - 1 - stop
            stop += 1
        heads = np.arange(start, stop)
        lengths = size - 1 - heads
        first = np.repeat(heads, lengths)
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        second = first + 1 + np.arange(first.size) - offsets
        yield first, second
        start = stop


def pairwise_map_distortion(source, target, mapping):
    """Distortion of a vertex map by the loop over pairs i < j at positive
    source distance, in Fractions; None when the map collapses a pair."""
    n = source.size
    lip = colip = None
    for i in range(n):
        for j in range(i + 1, n):
            d = source.d(i, j)
            if d == 0:
                continue
            dt = target.d(mapping[i], mapping[j])
            if dt == 0:
                return None
            r = dt / d
            lip = r if lip is None or r > lip else lip
            rinv = d / dt
            colip = rinv if colip is None or rinv > colip else colip
    return lip * colip


def triple_metric_violations(space, limit=None):
    """Every violated metric-axiom instance by the O(n^3) loop over entries:
    diagonal identity, then symmetry and positivity per pair i < j, then the
    triangle inequality for every ordered (i, j) and k.  With a `limit`, the
    first `limit` of them, and the loop stops there."""
    return tuple(itertools.islice(_metric_violations(space), limit))


def _metric_violations(space):
    from testspaces.metric_core import MetricViolation

    d = space.dist
    n = space.size
    for i in range(n):
        if d[i][i] != 0:
            yield MetricViolation("identity", (i, i), f"d({i},{i}) = {d[i][i]} != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                yield MetricViolation("symmetry", (i, j), f"d({i},{j}) = {d[i][j]} != d({j},{i}) = {d[j][i]}")
            if d[i][j] <= 0:
                yield MetricViolation("identity", (i, j), f"d({i},{j}) = {d[i][j]} not positive")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if d[i][j] > d[i][k] + d[k][j]:
                    yield MetricViolation(
                        "triangle",
                        (i, j, k),
                        f"d({i},{j}) = {d[i][j]} > d({i},{k}) + d({k},{j}) = {d[i][k] + d[k][j]}",
                    )


def sdp_feasible_loop(space, c, warm_start, checkpoints=False):
    """The alternating-projection probe as first written: every sweep
    recomputes the diagonal and the pair table, restores the diagonal with
    a mask and symmetrizes before `eigh`.  It reads the tolerance, the
    iteration cap and the stall constants from `l2_distortion` at call
    time, so a monkeypatch reaches both routes.

    The stall test compares the best residual with the best one
    STALL_WINDOW iterations back, after every iteration past the first
    window.  With checkpoints=True it is the earlier rule, kept as a
    reference: the comparison is made only at multiples of STALL_WINDOW,
    against the best residual at the previous multiple."""
    from testspaces import l2_distortion as l2

    if c < 1:
        raise ValueError("distortion bound must be >= 1")
    n = space.size
    D2 = l2._distance_squares(space)
    lo, hi = D2, (c * c) * D2
    off = ~np.eye(n, dtype=bool)
    tol, max_iter = l2.FEAS_TOL, l2.MAX_ITER_DEFAULT
    Q = warm_start.copy()

    best = [math.inf]  # best[k]: the best residual after iteration k
    it = 0
    while it < max_iter:
        it += 1
        # pair-constraint sweep (diagonal untouched)
        diag = np.diag(Q)
        E = diag[:, None] + diag[None, :] - 2.0 * Q
        Ec = np.clip(E, lo, hi)
        Qnew = (diag[:, None] + diag[None, :] - Ec) / 2.0
        Q = np.where(off, Qnew, Q)
        # PSD projection
        w, V = np.linalg.eigh((Q + Q.T) / 2.0)
        psd_violation = max(0.0, float(-w[0]))
        w = np.clip(w, 0.0, None)
        Q = (V * w) @ V.T
        Q = (Q + Q.T) / 2.0
        # residual: how far the PSD iterate is from the pair constraints
        diag = np.diag(Q)
        E = diag[:, None] + diag[None, :] - 2.0 * Q
        viol = np.maximum(lo - E, E - hi)
        np.fill_diagonal(viol, 0.0)
        constraint_violation = max(0.0, float(viol.max()))
        residual = max(constraint_violation, psd_violation)
        if residual <= tol:
            return l2.SdpOutcome(
                "feasible",
                l2.GramCertificate(Q, c, psd_violation, constraint_violation),
                it,
                residual,
            )
        best.append(min(best[-1], residual))
        window = l2.STALL_WINDOW
        checked = it > window and not (checkpoints and it % window)
        if checked and best[it - window] - best[it] <= l2.STALL_REL * max(best[it], 1e-300):
            return l2.SdpOutcome("stalled", None, it, best[it])
    return l2.SdpOutcome("undecided", None, it, best[-1])


def witness_bound(space, A):
    """The bound on c^2 that an infeasibility witness A proves, re-derived in
    Fractions: the columns of A sum to 0, P = A A^T, and the bound is
    sum P_ij d(i,j)^2 over the pairs i != j with P_ij > 0 divided by
    sum -P_ij d(i,j)^2 over those with P_ij < 0."""
    rows = A.tolist()
    assert all(sum(column) == 0 for column in zip(*rows))
    d = space.dist
    above = below = Fraction(0)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            p = sum(x * y for x, y in zip(a, b))
            if i != j and p > 0:
                above += p * d[i][j] ** 2
            elif i != j and p < 0:
                below -= p * d[i][j] ** 2
    return above / below


# fork distances: a0-a1 = 1, a1-a2 = a1-a2' = 1, a0-a2 = a0-a2' = 2, a2-a2' = 2
_FORK_PAIRS = (
    ((0, 1), 1.0),
    ((1, 2), 1.0),
    ((1, 3), 1.0),
    ((0, 2), 2.0),
    ((0, 3), 2.0),
    ((2, 3), 2.0),
)


def fork_gap_slsqp(D, n_starts=16, seed=20240):
    """Numerically maximize min(|x2|, |x2'|) over D-Lipschitz non-contractive
    fork images in R^3 (deterministic multi-start SLSQP); the gap is
    D - max/2, scaled to K = gap * D.  At D = 1 the constraint set is
    empty, reported as feasible=False with gap = +inf.  Returns the
    estimate and a stall message (None when the optimizer found a positive
    minimum norm)."""
    from scipy.optimize import minimize

    from testspaces.l2_distortion import ForkGapEstimate

    # variables: x1 (3), x2 (3), x2' (3), t;  maximize t
    img = {0: None, 1: slice(0, 3), 2: slice(3, 6), 3: slice(6, 9)}

    def point(z, idx):
        if idx == 0:
            return np.zeros(3)
        return z[img[idx]]

    cons = []
    for (i, j), dij in _FORK_PAIRS:
        cons.append(
            {
                "type": "ineq",
                "fun": (lambda z, i=i, j=j, dij=dij: np.linalg.norm(point(z, i) - point(z, j)) - dij),
            }
        )
        cons.append(
            {
                "type": "ineq",
                "fun": (lambda z, i=i, j=j, dij=dij: D * dij - np.linalg.norm(point(z, i) - point(z, j))),
            }
        )
    cons.append({"type": "ineq", "fun": lambda z: np.linalg.norm(z[3:6]) - z[9]})
    cons.append({"type": "ineq", "fun": lambda z: np.linalg.norm(z[6:9]) - z[9]})

    rng = np.random.default_rng(seed)
    best_t = None
    any_feasible = False
    for _ in range(n_starts):
        x1 = np.array([D, 0.0, 0.0]) + 0.2 * rng.standard_normal(3)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        z0 = np.concatenate([x1, x1 + D * w, x1 - D * w, [1.5 * D]])
        res = minimize(
            lambda z: -z[9],
            z0,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-12},
        )
        z = res.x
        feas_violation = max(
            max(
                np.linalg.norm(point(z, i) - point(z, j)) - D * dij,
                dij - np.linalg.norm(point(z, i) - point(z, j)),
            )
            for (i, j), dij in _FORK_PAIRS
        )
        if feas_violation <= 1e-7:
            any_feasible = True
            t = min(np.linalg.norm(z[3:6]), np.linalg.norm(z[6:9]))
            if best_t is None or t > best_t:
                best_t = t
    if not any_feasible:
        return ForkGapEstimate(D, math.inf, math.inf, 0.0, False), None
    if best_t is None or best_t <= 0:
        return ForkGapEstimate(D, 0.0, 0.0, 0.0, True), "optimizer stalled; widest valid lower bound 0"
    gap = D - best_t / 2.0
    if gap < 0:
        gap = 0.0
    return ForkGapEstimate(D, gap * D, gap, best_t, True), None


def cycle_tree_all_maps(m, max_tree_vertices, map_budget=50_000_000):
    """The cycle-into-trees search as first written: every one of the
    order^m vertex maps of C_m into every tree, decoded from its base-order
    index, collapsing maps included (their distortion is infinite)."""
    import networkx as nx

    from testspaces.embeddings import CycleTreeResult, map_distortion
    from testspaces.errors import CapExceededError, ValidationError
    from testspaces.metric_core import MetricSpace, PointId, WeightedGraph, apsp

    if m < 3:
        raise ValidationError("cycle needs m >= 3")
    trees = {}
    total_maps = 1 if max_tree_vertices >= 1 else 0
    for order in range(2, max_tree_vertices + 1):
        trees[order] = [
            tuple(sorted(tuple(sorted(e)) for e in tree.edges()))
            for tree in nx.nonisomorphic_trees(order)
        ]
        total_maps += order**m * len(trees[order])
        if total_maps > map_budget:
            raise CapExceededError(
                f"{total_maps} maps into trees on at most {order} vertices exceed budget {map_budget}"
            )

    dc = np.array(
        [[min(abs(i - j), m - abs(i - j)) for j in range(m)] for i in range(m)],
        dtype=np.int64,
    )
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    best = None
    searched = 0
    for order in range(1, max_tree_vertices + 1):
        if order == 1:
            searched += 1
            continue
        points = tuple(PointId(i) for i in range(order))
        for edges in trees[order]:
            tree_space = apsp(WeightedGraph(points, tuple((u, v, Fraction(1)) for u, v in edges)))
            td = tree_space.num
            chunk = 200_000
            total = order**m
            searched += total
            for start in range(0, total, chunk):
                idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
                maps = np.empty((idx.size, m), dtype=np.int64)
                rem = idx
                for pos in range(m - 1, -1, -1):
                    maps[:, pos] = rem % order
                    rem = rem // order
                ratio_max = np.zeros(idx.size)
                ratio_min = np.full(idx.size, np.inf)
                alive = np.ones(idx.size, dtype=bool)
                for i, j in pairs:
                    t = td[maps[:, i], maps[:, j]]
                    alive &= t > 0
                    with np.errstate(divide="ignore"):
                        r = t / dc[i, j]
                    ratio_max = np.maximum(ratio_max, r)
                    ratio_min = np.minimum(ratio_min, r)
                with np.errstate(divide="ignore", invalid="ignore"):
                    dist = np.where(alive, ratio_max / ratio_min, np.inf)
                k = int(np.argmin(dist))
                if np.isfinite(dist[k]) and (best is None or dist[k] < best[0]):
                    best = (float(dist[k]), edges, tuple(int(x) for x in maps[k]), tree_space)

    bound = Fraction(m, 3) - 1
    if best is None:
        return CycleTreeResult(m, max_tree_vertices, None, bound, None, None, searched)
    _, edges, mapping, tree_space = best
    exact = map_distortion(MetricSpace(dc), tree_space, mapping)
    return CycleTreeResult(m, max_tree_vertices, exact, bound, edges, mapping, searched)


def thickness_by_pairs(family, control_budget, work_cap=10**7):
    """`thickness_alpha` as first written: for every geodesic and control set,
    a loop over all candidates keeping the largest admissible total deviation,
    read from the family's pair tables as Python ints."""
    from testspaces.rnp import ThicknessCertificate

    common = family._common.tolist()
    totals = family._total.tolist()
    n_geo = len(family.geodesics)
    sets = [
        combo
        for size in range(control_budget + 1)
        for combo in itertools.combinations(range(1, len(family.params) - 1), size)
    ]
    configs = 0
    partial = False
    if n_geo * len(sets) * n_geo > work_cap:
        sets = sets[: max(1, work_cap // (n_geo * n_geo))]
        partial = True
    alpha = None
    worst = (0, ())
    for g in range(n_geo):
        for combo in sets:
            mask = (1 << 0) | (1 << (len(family.params) - 1))
            mask |= sum(1 << i for i in combo)
            best = None
            for cand in range(n_geo):
                if common[g][cand] & mask != mask:
                    continue
                tot = totals[g][cand]
                if best is None or tot > best:
                    best = tot
            configs += 1
            if best is not None and (alpha is None or best < alpha):
                alpha = best
                worst = (g, tuple(family.params[i] for i in combo))
    alpha = Fraction(alpha, family.space.scale)
    return ThicknessCertificate(alpha, control_budget, worst[0], worst[1], configs, partial)


def pair_tables_by_parameter(family):
    """`GeodesicFamily`'s pair tables (common-parameter bitmask, sum and
    count of bubble maxima per pair of geodesics) as first built: one pass
    over the parameters, gathering each parameter's deviation table and
    counting a bubble wherever a deviation starts after a common parameter."""
    from testspaces.metric_core import RationalTable

    np_ = len(family.params)
    num = RationalTable(family.space.num, 1, np_).num  # the bubble totals below stay exact
    shape = (len(family.geodesics),) * 2
    common = np.zeros(shape, dtype=np.int64 if np_ < 63 else object)
    total, run, bubbles = (np.zeros(shape, dtype=num.dtype) for _ in range(3))
    for t, v in enumerate(family._points):
        dev = num[v][:, v]  # d(g_a(t), g_b(t)) * scale
        z = dev == 0
        common |= np.left_shift(z, t, dtype=common.dtype)
        total += run * z
        bubbles += ~z & (run == 0)
        np.maximum(run, dev, out=run)
        run *= ~z
    total += run
    return common, total, bubbles


def respond_by_scan(family, g, control_params):
    """`GeodesicFamily.respond` as first written: the same candidate choice
    from the pair tables, then a scan of the deviation profile for the
    flanks of every bubble and, per gap, the first parameter of largest
    deviation."""
    from testspaces.rnp import OracleResponse

    controls = sorted(set(control_params) | {family.params[0], family.params[-1]})
    mask = sum(1 << family.position[p] for p in controls)
    cands = np.flatnonzero(family._common[g] & mask == mask)
    keys = zip((-family._total[g, cands]).tolist(), family._nbubbles[g, cands].tolist(), cands.tolist())
    best = min(keys)[2]
    profile = family.space.num[family._points[:, g], family._points[:, best]].tolist()
    np_ = len(family.params)
    q_idx = {0, np_ - 1}
    q_idx.update(family.position[p] for p in controls)
    t = 0
    while t < np_:
        if profile[t] != 0:
            start = t
            while t < np_ and profile[t] != 0:
                t += 1
            q_idx.add(start - 1)
            q_idx.add(t)
        else:
            t += 1
    q_sorted = sorted(q_idx)
    s_params, deviations = [], []
    for a, b in zip(q_sorted, q_sorted[1:]):
        inside = range(a + 1, b)
        if not inside:
            s_params.append((family.params[a] + family.params[b]) / 2)
            deviations.append(Fraction(0))
            continue
        s_best = max(inside, key=lambda i: (profile[i], -i))
        s_params.append(family.params[s_best])
        deviations.append(Fraction(profile[s_best], family.space.scale))
    q_params = tuple(family.params[i] for i in q_sorted)
    total = sum(deviations, Fraction(0))
    return OracleResponse(best, q_params, tuple(s_params), tuple(deviations), total)


def solve_lp_fractions(A, b, c, basis=None):
    """`exactlp.solve_lp` as first written: Bland's simplex over a dense
    tableau of Fractions.  Without a basis, an artificial phase 1 finds a
    feasible one (the two-phase simplex); a given basis is pivoted in row by
    row, as the library does.  Returns (optimal value, an optimal x) and
    raises ValidationError for an infeasible LP or starting basis, the
    library's `Unbounded` for an unbounded one."""
    from testspaces.errors import ValidationError

    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValidationError("inconsistent LP dimensions")

    if basis is not None:
        T = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(m)]
        basis = list(basis)
        for i, k in enumerate(basis):
            if T[i][k] == 0:
                raise ValidationError("starting basis is singular")
            _lp_pivot_fractions(T, i, k)
        if any(row[-1] < 0 for row in T):
            raise ValidationError("starting basis is infeasible")
    else:
        # phase 1: artificial identity basis on rows with b >= 0
        T = []
        for i in range(m):
            row = [Fraction(x) for x in A[i]] + [Fraction(0)] * m + [Fraction(b[i])]
            if row[-1] < 0:
                row = [-x for x in row]
            row[n + i] = Fraction(1)
            T.append(row)
        basis = [n + i for i in range(m)]
        cost1 = [Fraction(0)] * n + [Fraction(1)] * m
        _lp_simplex_fractions(T, basis, cost1, allowed=n + m)
        if sum((cost1[basis[i]] * T[i][-1] for i in range(m)), Fraction(0)) > 0:
            raise ValidationError("LP has no feasible point")

        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n:
                pivot_col = next((j for j in range(n) if T[i][j] != 0), None)
                if pivot_col is not None:
                    _lp_pivot_fractions(T, i, pivot_col)
                    basis[i] = pivot_col
        # rows still basic in an artificial variable are redundant (b component 0)

    cost2 = [Fraction(x) for x in c] + [Fraction(0)] * (len(T[0]) - 1 - n)
    _lp_simplex_fractions(T, basis, cost2, allowed=n)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), Fraction(0))
    return value, x


def _lp_simplex_fractions(T, basis, cost, allowed):
    from testspaces.exactlp import Unbounded

    m = len(T)
    while True:
        in_basis = set(basis)
        enter = None
        for j in range(allowed):
            if j in in_basis:
                continue
            reduced = cost[j] - sum(
                (cost[basis[i]] * T[i][j] for i in range(m) if T[i][j]), Fraction(0)
            )
            if reduced < 0:
                enter = j  # Bland: smallest improving index
                break
        if enter is None:
            return
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise Unbounded("LP objective is unbounded below")
        _lp_pivot_fractions(T, leave, enter)
        basis[leave] = enter


def _lp_pivot_fractions(T, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col]:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]


def geodesic_paths_fractions(graph, u, v, space):
    """All shortest u-v vertex paths with their Fraction breakpoints, by a
    depth-first search on the Fraction edge lengths themselves, sorted by
    vertex sequence."""
    adj = adjacency(graph)
    from_u, to_v = space.dist[u], space.dist[v]
    found = []
    stack = [((u,), (Fraction(0),))]
    while stack:
        path, breaks = stack.pop()
        if path[-1] == v:
            found.append((path, breaks))
            continue
        for y, w in adj[path[-1]]:
            cum = breaks[-1] + w
            if cum == from_u[y] and cum + to_v[y] == from_u[v]:
                stack.append((path + (y,), breaks + (cum,)))
    return sorted(found)


# file formats with one Fraction or float per entry, and csv.writer's bytes


def space_from_csv_per_entry(text):
    """A distance CSV read one parse_rational per entry, checked square,
    then MetricSpace."""
    from testspaces.errors import ValidationError
    from testspaces.formats import parse_rational
    from testspaces.metric_core import MetricSpace

    rows = [[parse_rational(x) for x in r] for r in csv.reader(io.StringIO(text)) if r]
    if any(len(row) != len(rows) for row in rows):
        raise ValidationError("distance table must be square")
    return MetricSpace(rows)


def space_to_csv_per_entry(space):
    """A distance table written through csv.writer, one Fraction per entry."""
    from testspaces.formats import rational_str

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in space.num.tolist():
        writer.writerow([rational_str(Fraction(x, space.scale)) for x in row])
    return buf.getvalue()


def vectors_from_csv_per_entry(text):
    """A vector CSV read one entry at a time: exact when every entry is a
    rational string, floats otherwise."""
    from testspaces.errors import ValidationError
    from testspaces.formats import parse_rational

    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if all("." not in x and "e" not in x.lower() for row in rows for x in row):
        return tuple(tuple(parse_rational(x) for x in row) for row in rows)
    try:
        return tuple(tuple(float(x) for x in row) for row in rows)
    except ValueError as e:
        raise ValidationError(f"bad float in vector file: {e}") from None


def vectors_to_csv_per_entry(vectors):
    """Vectors written through csv.writer, one formatted string per entry."""
    from testspaces.formats import rational_str

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for vec in vectors:
        writer.writerow(
            [rational_str(x) if isinstance(x, (int, Fraction)) else repr(float(x)) for x in vec]
        )
    return buf.getvalue()


def normalized_l1(v, atoms):
    """Normalized l1 norm: atoms carry equal mass 1/atoms."""
    return Fraction(sum(abs(x) for x in v), atoms)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def tree_vectors(tree):
    """label -> the delta-tree's vector, a tuple of Fractions."""
    from testspaces.generators import tree_labels

    return dict(zip(tree_labels(tree.depth), tree.table.rows()))


def bush_levels(bush):
    """Per level, the delta-bush's vectors as tuples of Fractions."""
    rows = bush.table.rows()
    return tuple(rows[a:b] for a, b in zip(bush.starts, bush.starts[1:]))


def vertex_pairs(line, bush):
    """The (parameter, point) pairs of a broken line's vertices, each point
    a tuple of Fractions."""
    params, points = line.vertices(bush)
    return tuple(zip(params, points.rows()))


def verify_delta_tree_fractions(tree):
    """`rnp.verify_delta_tree` as first written: Fraction norms per vector."""
    from testspaces.errors import ValidationError

    vectors = tree_vectors(tree)
    for lab, vec in vectors.items():
        if normalized_l1(vec, tree.atoms) != 1:
            raise ValidationError(f"||x_{lab or 'root'}|| != 1")
        if len(lab) < tree.depth:
            c0, c1 = vectors[lab + "0"], vectors[lab + "1"]
            if any(2 * v != a + b for v, a, b in zip(vec, c0, c1)):
                raise ValidationError(f"midpoint identity fails at {lab or 'root'}")
            for child in (c0, c1):
                if normalized_l1(_sub(vec, child), tree.atoms) < tree.delta:
                    raise ValidationError(f"separation fails below {lab or 'root'}")


def verify_bush_fractions(bush):
    """`rnp.verify_bush` as first written: the convex combinations and the
    separations in Fractions, entry by entry."""
    from testspaces.errors import ValidationError

    levels = bush_levels(bush)
    if len(levels[0]) != 1:
        raise ValidationError("a bush must start from a single vector (m_0 = 1)")
    for n in range(1, len(levels)):
        seen = set()
        for k, block in enumerate(bush.blocks[n]):
            seen.update(block)
            lam = sum((bush.weights[n][j] for j in block), Fraction(0))
            if lam != 1:
                raise ValidationError(f"weights in block ({n},{k}) sum to {lam} != 1")
            parent = levels[n - 1][k]
            combo = [Fraction(0)] * bush.atoms
            for j in block:
                w = bush.weights[n][j]
                if w < 0:
                    raise ValidationError("negative weight")
                for a in range(bush.atoms):
                    combo[a] += w * levels[n][j][a]
                if normalized_l1(_sub(levels[n][j], parent), bush.atoms) < bush.delta:
                    raise ValidationError(f"separation fails at ({n},{j})")
            if tuple(combo) != tuple(Fraction(x) for x in parent):
                raise ValidationError(f"convexity identity fails at ({n},{k})")
        if seen != set(range(len(levels[n]))):
            raise ValidationError(f"level-{n} blocks are not a partition")


def gauge_by_phase_one(gauge, v):
    """The gauge value as first computed: the gauge LP solved by the
    two-phase Fraction simplex, an artificial basis and phase 1 before the
    Bland loop."""
    return solve_lp_fractions(gauge._rows, v, gauge._costs)[0]


@dataclass(frozen=True)
class Replacement:
    """One edge replaced at some level: `uid` names it in the vertex chains,
    `ends` are the replaced edge's endpoints and `middle` the new vertices
    put between them, in index order."""

    uid: int
    level: int
    ends: tuple[int, int]
    middle: tuple[int, ...]


@dataclass(frozen=True)
class FamilyRecord:
    """A recursive family's construction as tuples: the vertex counts per
    level, the edges (u, v, length), one `Replacement` per unit and each
    vertex's chain of (uid, side) from outermost to innermost."""

    vertex_counts: tuple[int, ...]
    edges: tuple[tuple[int, int, Fraction], ...]
    units: tuple[Replacement, ...]
    chains: tuple[tuple[tuple[int, int], ...], ...]


def family_record_tuples(kind, n, w):
    """`generators._replace_edges` as first written: one edge record
    (u, v, chain) at a time, each unit a `Replacement` and each vertex's
    chain a tuple, the edges made from the gadget's pattern in Python."""
    from testspaces.generators import _GADGETS

    sides, pattern, G = _GADGETS[kind]
    edges = [(0, 1, ())]
    chains = [(), ()]
    counts = [2]
    units = []
    for level in range(1, n + 1):
        new_edges = []
        for x, y, chain in edges:
            uid = len(units)
            middle = tuple(range(len(chains), len(chains) + len(sides)))
            chains += [chain + ((uid, side),) for side in sides]
            units.append(Replacement(uid, level, (x, y), middle))
            slot = (x, y) + middle
            new_edges += [(slot[a], slot[b], chains[slot[c]]) for a, b, c in pattern.tolist()]
        edges = new_edges
        counts.append(len(chains))
    length = Fraction(1, int(G[0, 1]) ** n) if w.mode == "scaled" else Fraction(1)
    return FamilyRecord(
        tuple(counts), tuple((u, v, length) for u, v, _ in edges), tuple(units), tuple(chains)
    )


def family_record_view(fam):
    """The same record read from a `RecursiveFamily`'s arrays: a unit's
    level and new vertices from `vertex_counts`, and a vertex's chain by
    walking up the carriers of its units."""
    from testspaces import generators

    width = len(generators._GADGETS[fam.kind][0])  # new vertices per unit
    units = []
    for level in range(1, fam.level + 1):
        lo, hi = fam.vertex_counts[level - 1], fam.vertex_counts[level]
        for start in range(lo, hi, width):
            uid = len(units)
            ends = tuple(fam.unit_ends[uid].tolist())
            units.append(Replacement(uid, level, ends, tuple(range(start, start + width))))
    chains = []
    for v in range(fam.graph.size):
        chain = []
        while v >= 0 and fam.vertex_units[v] >= 0:
            uid = int(fam.vertex_units[v])
            chain.append((uid, int(fam.vertex_sides[v])))
            v = int(fam.unit_carriers[uid])
        chains.append(tuple(reversed(chain)))
    return FamilyRecord(fam.vertex_counts, fam.graph.edges, tuple(units), tuple(chains))


def tent_embedding_tuples(fam, space=None):
    """`rnp.diamond_l1_embedding` as first written: Fraction heights and one
    Fraction per (vertex, quadrilateral), looked up in each vertex's chain
    (read through `family_record_view`)."""
    from testspaces.embeddings import Embedding, NormedTarget

    if space is None:
        space = fam.metric_space()
    record = family_record_view(fam)
    h = [Fraction(x, space.scale) for x in space.num[fam.source].tolist()]
    spans = []
    for quad in record.units:
        x, y = quad.ends
        spans.append((min(h[x], h[y]), max(h[x], h[y])))
    vectors = []
    for v in range(fam.graph.size):
        coord = [h[v]]
        chain = dict(record.chains[v])
        for quad, (lo, hi) in zip(record.units, spans):
            side = chain.get(quad.uid)
            if side is None or not (lo < h[v] < hi):
                coord.append(Fraction(0))
            else:
                tent = min(h[v] - lo, hi - h[v])
                coord.append(tent if side == 0 else -tent)
        vectors.append(tuple(coord))
    return Embedding(space, tuple(vectors), NormedTarget("l1", 1 + len(record.units)))


def broken_lines_by_scan(bush, k):
    """`rnp.broken_line_family` as first written: each segment's product
    and half computed anew, its parent found by scanning the blocks."""
    from testspaces.rnp import BrokenLine

    def parent_of(level, j):
        for kidx, block in enumerate(bush.blocks[level]):
            if j in block:
                return kidx
        raise AssertionError(f"index {j} missing from level-{level} partition")

    def preliminary(segments):
        out = []
        for coef, (lvl, kidx) in segments:
            for j in bush.blocks[lvl + 1][kidx]:
                out.append((coef * bush.weights[lvl + 1][j], ("y", lvl + 1, j)))
        return out

    def finalize(pre, bit):
        out = []
        for coef, (_, lvl, j) in pre:
            parent = (lvl - 1, parent_of(lvl, j))
            child = (lvl, j)
            first, second = (parent, child) if bit == "0" else (child, parent)
            out.append((coef / 2, first))
            out.append((coef / 2, second))
        return out

    def line(label, segments):
        """The library's line of these segments, its `segments` view the
        segments themselves."""
        scale = math.lcm(*(coef.denominator for coef, _ in segments))
        rows = [bush.starts[lvl] + j for _, (lvl, j) in segments]
        coefs = [coef.numerator * (scale // coef.denominator) for coef, _ in segments]
        out = BrokenLine(label, np.array(rows, dtype=np.intp), np.array(coefs, dtype=object), scale, bush.starts)
        vars(out)["segments"] = tuple(segments)
        return out

    lines = {"": line("", ((Fraction(1), (0, 0)),))}
    frontier = [""]
    for _ in range(k):
        nxt = []
        for lab in frontier:
            pre = preliminary(lines[lab].segments)
            for bit in "01":
                child = lab + bit
                lines[child] = line(child, finalize(pre, bit))
                nxt.append(child)
        frontier = nxt
    return lines


def _interval_index_scan(breaks, t):
    for i in range(len(breaks) - 1):
        if breaks[i] <= t < breaks[i + 1]:
            return i
    raise AssertionError("parameter outside the partition")


def martingale_l1_diff_fractions(a, b, target):
    """Bochner L1 norm of a - b: one Fraction difference vector and one
    `norm` call per interval of the common refinement, found by scans."""
    from testspaces.embeddings import norm

    breaks = sorted(set(a.breaks) | set(b.breaks))
    total = Fraction(0)
    for lo, hi in zip(breaks, breaks[1:]):
        va = a.values[_interval_index_scan(a.breaks, lo)]
        vb = b.values[_interval_index_scan(b.breaks, lo)]
        total += (hi - lo) * norm(target, _sub(va, vb))
    return total


def vertex_at(family, g, param):
    """Geodesic g's vertex at the grid parameter `param` of a GeodesicFamily."""
    return family.geodesics[g].vertices[family.position[param]]


def martingale_fractions(family, emb, steps):
    """`rnp.martingale_from_embedding` as first written: the embedding
    divided by lip entry by entry, and every slope, jump and level difference
    a tuple of Fractions."""
    from testspaces.embeddings import distortion, norm
    from testspaces.rnp import Martingale, MartingaleRun, PiecewiseLevel

    def level(vectors, params, points):
        values = []
        for i in range(len(points) - 1):
            num = _sub(vectors[points[i + 1]], vectors[points[i]])
            den = params[i + 1] - params[i]
            values.append(tuple(x / den for x in num))
        return PiecewiseLevel(tuple(params), tuple(values))

    rep = distortion(emb)
    lip, colip = rep.lip, rep.colip
    normalized = tuple(tuple(x / lip for x in v) for v in emb.vectors)
    ell = Fraction(1) / (lip * colip)
    params_all = family.params
    g_cur = 0
    v_params = [params_all[0], params_all[-1]]
    points = [vertex_at(family, g_cur, p) for p in v_params]
    levels = [level(normalized, v_params, points)]
    diff_norms = []
    checks = 0
    for _ in range(steps):
        resp = family.respond(g_cur, v_params[1:-1])
        q = list(resp.q_params)
        w_points = [vertex_at(family, g_cur, p) for p in q]
        m_odd = level(normalized, q, w_points)
        levels.append(m_odd)
        q_idx = [params_all.index(p) for p in q]
        even_params, even_points, picks = [q[0]], [w_points[0]], []
        for i in range(len(q) - 1):
            s, dev = resp.s_params[i], resp.deviations[i]
            if dev == 0 or s not in params_all:
                picks.append(False)
                even_params.append(q[i + 1])
                even_points.append(w_points[i + 1])
                continue
            z = vertex_at(family, g_cur, s)
            zt = vertex_at(family, resp.geodesic, s)
            A, B = s - q[i], q[i + 1] - s
            f_w0, f_w1 = normalized[w_points[i]], normalized[w_points[i + 1]]

            def jump(zv):
                fz = normalized[zv]
                left = tuple((x - y) / A for x, y in zip(fz, f_w0))
                right = tuple((x - y) / B for x, y in zip(f_w1, fz))
                return norm(emb.target, _sub(right, left))

            jz, jzt = jump(z), jump(zt)
            pick_z = jz > jzt
            chosen = z if pick_z else zt
            needed = (ell / 2) * family.space.d(z, zt) * (Fraction(1) / A + Fraction(1) / B)
            assert max(jz, jzt) >= needed, "selection inequality failed"
            checks += 1
            picks.append(pick_z is False)
            even_params.extend([s, q[i + 1]])
            even_points.extend([chosen, w_points[i + 1]])
        g_cur = family.splice(g_cur, resp.geodesic, list(zip(q_idx, q_idx[1:])), picks)
        m_even = level(normalized, even_params, even_points)
        levels.append(m_even)
        diff_norms.append(martingale_l1_diff_fractions(m_even, m_odd, emb.target))
        v_params = even_params
    return MartingaleRun(Martingale(tuple(levels), emb.target), ell, lip, tuple(diff_norms), checks)


def martingale_check_fractions(mart, bound=Fraction(1)):
    """`rnp.martingale_check` as first written: `norm` once per value, and
    for every parent interval a scan over every child interval, summing
    Fraction products entry by entry."""
    from testspaces.embeddings import norm
    from testspaces.rnp import MartingaleReport

    failures = []
    refinement = True
    condexp = True
    bounded = True
    for k, level in enumerate(mart.levels):
        for value in level.values:
            if norm(mart.target, value) > bound:
                bounded = False
                failures.append(f"level {k}: value norm exceeds {bound}")
        if k == 0:
            continue
        prev = mart.levels[k - 1]
        if not set(prev.breaks) <= set(level.breaks):
            refinement = False
            failures.append(f"level {k} does not refine level {k - 1}")
            continue
        for i in range(len(prev.breaks) - 1):
            lo, hi = prev.breaks[i], prev.breaks[i + 1]
            acc = [Fraction(0)] * len(prev.values[i])
            for j in range(len(level.breaks) - 1):
                a, b = level.breaks[j], level.breaks[j + 1]
                if a >= lo and b <= hi:
                    for t, x in enumerate(level.values[j]):
                        acc[t] += (b - a) * x
            expect = tuple(x * (hi - lo) for x in prev.values[i])
            if tuple(acc) != expect:
                condexp = False
                failures.append(f"conditional expectation fails on ({lo},{hi}] at level {k}")
    return MartingaleReport(
        valid=not failures,
        refinement_ok=refinement,
        conditional_expectation_ok=condexp,
        bounded_ok=bounded,
        failures=tuple(failures),
    )
