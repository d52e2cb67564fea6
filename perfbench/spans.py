"""Outside-in span recorder for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of each testspaces layer and
rebinds every wrapper in every `testspaces` module namespace that holds the
original by name (so `apsp` is also traced when `markov`, `rnp` or
`embeddings` call it, and `sdp_feasible` when `min_distortion_l2` calls it).
No file under `src/` changes.  `uninstall()` puts the originals back.

Each span records its name, start, end, parent span and job id, plus work
counts that are computed from the call's inputs and return value (never
read from inside the library).  Spans stay in memory; the caller writes them
out when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "testspaces"

# --- work counts, computed from inputs and return values --------------------


def _size(obj) -> int:
    """Vertex/point count of a WeightedGraph, MetricSpace or RecursiveFamily."""
    graph = getattr(obj, "graph", None)
    return graph.size if graph is not None else obj.size


def _k_max(T: int) -> int:
    return max(0, math.ceil(math.log2(T))) if T > 1 else 0


def _split_terms(T: int):
    for k in range(_k_max(T) + 1):
        for t in range(1, T + 1):
            yield t, max(t - 2**k, 0)


def _apsp(a, k, out):
    return {"entries": out.size * out.size}


def _verify(a, k, out):
    n = a[0].size
    return {"triples": n * (n - 1) * (n - 2)}


def _geodesics(a, k, out):
    return {"count": len(out)}


def _pairs(a, k, out):
    n = (a[0] if a else k["emb"]).space.size
    return {"pairs": n * (n - 1) // 2}


def _map_pairs(a, k, out):
    n = a[0].size
    return {"pairs": n * (n - 1) // 2}


def _oracle_maps(a, k, out):
    return {"maps": out.maps_searched}


def _sdp(a, k, out):
    return {"calls": 1, "iterations": out.iterations, out.status: 1}


def _exact_dp(a, k, out):
    # dense route: P^j for j <= T, the distributions pi_s, the pair table w_j
    # for every start state, and the one-step rhs sum
    n, T = a[0].n_states, a[0].horizon
    return {"mult_ops": (T - 1) * n**3 + T * n**2 + T * n**3 + T * n**2}


def _mc_chain(a, k, out):
    T = a[0].horizon
    samples = a[5] if len(a) > 5 else k["samples"]
    lhs = sum(s + 2 * (t - s) for t, s in _split_terms(T))
    rhs = sum(t for t in range(1, T + 1))
    return {"steps": samples * (lhs + rhs)}


def _mc_tree(a, k, out):
    m = a[0]
    samples = a[3] if len(a) > 3 else k["samples"]
    return {"steps": samples * sum(2 * (t - s) for t, s in _split_terms(2**m))}


def _lp(a, k, out):
    A, c = a[0], a[2]
    m, n = len(A), len(c)
    return {"calls": 1, "tableau_entries": m * (n + m + 1)}


def _thickness(a, k, out):
    return {"configurations": out.configurations, "partial": int(out.partial)}


def _vertices(a, k, out):
    return {"vertices": _size(out)}


def _file_bytes(a, k, out):
    path = a[0] if a else k.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


# layer name -> [(module, function name, counter)]
LAYERS: dict[str, list[tuple[str, str, Optional[Callable]]]] = {
    "metric_core.apsp": [("metric_core", "apsp", _apsp)],
    "metric_core.verify": [("metric_core", "verify_metric", _verify)],
    "metric_core.geodesics": [("metric_core", "enumerate_geodesic_paths", _geodesics)],
    "embeddings.distortion": [
        ("embeddings", "distortion", _pairs),
        ("embeddings", "map_distortion", _map_pairs),
    ],
    "embeddings.bourgain": [
        ("embeddings", "bourgain_distortion", None),
        ("embeddings", "bourgain_embed", None),
        ("embeddings", "bourgain_labeling", None),
    ],
    "embeddings.oracle": [
        ("embeddings", "cycle_tree_lower_oracle", _oracle_maps),
        ("embeddings", "james_alpha", None),
    ],
    "l2_distortion.sdp": [("l2_distortion", "sdp_feasible", _sdp)],
    "l2_distortion.l2min": [("l2_distortion", "min_distortion_l2", None)],
    "l2_distortion.fork_gap": [("l2_distortion", "fork_gap_estimate", None)],
    "l2_distortion.fork_select": [
        ("l2_distortion", "fork_select", None),
        ("l2_distortion", "normalize_noncontractive", None),
    ],
    "markov.exact": [
        ("markov", "exact_convexity", _exact_dp),
        ("markov", "tree_walk_convexity_exact", None),
    ],
    "markov.mc": [
        ("markov", "mc_convexity", _mc_chain),
        ("markov", "tree_walk_convexity_mc", _mc_tree),
    ],
    "markov.walk": [
        ("markov", "downhill_walk", None),
        ("markov", "lazy_path_walk", None),
        ("markov", "downward_tree_walk", None),
    ],
    "exactlp.solve_lp": [("exactlp", "solve_lp", _lp)],
    "rnp.family": [("rnp", "diamond_geodesic_family", None)],
    "rnp.thickness": [("rnp", "thickness_alpha", _thickness)],
    "rnp.martingale": [
        ("rnp", "martingale_from_embedding", None),
        ("rnp", "martingale_check", None),
        ("rnp", "diamond_l1_embedding", None),
    ],
    "rnp.lines": [
        ("rnp", name, None)
        for name in (
            "rademacher_tree",
            "verify_delta_tree",
            "tree_to_bush",
            "verify_bush",
            "bush_gauge_delta",
            "broken_line_family",
            "sibling_deviation",
        )
    ],
    "formats.read": [
        ("formats", name, _file_bytes) for name in ("read_graph", "read_space", "read_vectors")
    ]
    + [("formats", "load_space_arg", None)],
    "formats.write": [
        ("formats", name, _file_bytes) for name in ("write_graph", "write_space")
    ],
    "cli": [("cli", "main", None)],
    "generators": [
        ("generators", name, _vertices)
        for name in (
            "binary_tree",
            "fork",
            "cycle",
            "diamond",
            "laakso",
            "tree_product",
            "heisenberg_ball",
        )
    ]
    + [("metric_core", "path_graph", _vertices)],
}

# counters that are computed by a formula rather than observed directly
COMPUTED = {
    "metric_core.apsp.entries": "n^2 per apsp call",
    "metric_core.verify.triples": "n(n-1)(n-2) per verify_metric call",
    "metric_core.geodesics.count": "paths returned",
    "embeddings.distortion.pairs": "n(n-1)/2 per distortion call",
    "embeddings.oracle.maps": "maps_searched returned by the cycle-tree oracle",
    "l2_distortion.sdp.iterations": "iterations returned by sdp_feasible",
    "markov.exact.mult_ops": "dense DP: (2T-1) n^3 + 2T n^2",
    "markov.mc.steps": "samples x simulated transitions",
    "exactlp.solve_lp.tableau_entries": "m (n + m + 1) per solve",
    "rnp.thickness.configurations": "configurations returned by thickness_alpha",
    "formats.bytes": "file sizes of the paths read and written",
    "generators.vertices": "vertex count of each generated space",
    "generators.build_vertices": "vertex count of each space generated for the inputs",
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None


class Tracer:
    """Holds spans in memory; `job` names the job that new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, counter=None, **kwargs):
        """Run fn under a span named `name`; `counter` computes its work counts."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)  # type: ignore[arg-type]  # filled on exit
        self.stack.append(sid)
        start = time.perf_counter()
        error = None
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.job, error=error)
        if counter is not None:
            self.spans[sid].counts = counter(args, kwargs, out)
        return out

    def _wrapper(self, layer: str, fn: Callable, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, counter=counter, **kwargs)

        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function in every loaded package module."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, entries in LAYERS.items():
            for mod_name, fn_name, counter in entries:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(home, fn_name)
                wrapper = self._wrapper(layer, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer: span duration minus what its children cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child[s.sid]
    return dict(out)


def counts(spans: list[Span]) -> dict[str, int]:
    """Work counts per layer, keyed '<layer>.<counter>'."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
    return dict(out)
