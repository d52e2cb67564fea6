"""Single entry point exposing every operation as a subcommand with
reproducible, file-based workflows.

Every run prints one JSON report to stdout: the exact config used, the
result payload, and timing metadata.  Identical configs (including seeds)
produce byte-identical payloads; only meta.elapsed_s varies.  Exit codes:
0 ok, 2 validation error, 3 cap exceeded, 4 undecided (a NaN result too).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import CapExceededError, UndecidedError, ValidationError
from .formats import (
    load_space_arg,
    rational_str,
    read_vectors,
    vectors_to_csv,
    write_graph,
    write_space,
)

EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_UNDECIDED = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a non-finite float (--tol nan) is echoed as its repr: JSON has no NaN
    config = {
        k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    started = time.perf_counter()
    try:
        result = args.func(args)
    except CapExceededError as e:
        return _fail(args.command, config, "cap_exceeded", str(e), EXIT_CAP)
    except UndecidedError as e:
        return _fail(args.command, config, "undecided", str(e), EXIT_UNDECIDED)
    except (ValidationError, OSError, json.JSONDecodeError) as e:
        return _fail(args.command, config, "validation", str(e), EXIT_VALIDATION)
    report = {
        "command": args.command,
        "config": config,
        "result": result,
        "meta": {"version": __version__, "elapsed_s": round(time.perf_counter() - started, 6)},
    }
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # JSON has no NaN or infinity, and a result must not hold one
        message = f"{_non_finite(result, 'result')} is not a finite number"
        return _fail(args.command, config, "undecided", message, EXIT_UNDECIDED)
    print(text)
    return 0


def _non_finite(value, path: str):
    """The dotted path of the first NaN or infinity in a report value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = sorted(value.items()) if isinstance(value, dict) else enumerate(value) if isinstance(value, (list, tuple)) else ()
    return next(filter(None, (_non_finite(v, f"{path}.{k}") for k, v in items)), None)


def _fail(command, config, kind, message, code) -> int:
    print(
        json.dumps(
            {
                "command": command,
                "config": config,
                "error": {"kind": kind, "message": message},
            },
            sort_keys=True,
        )
    )
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call: parsing does not change it and every default is immutable.
    Callers must not add to it."""
    p = argparse.ArgumentParser(
        prog="testspaces",
        description="finite metric test spaces and their embedding invariants",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test-space family")
    g.add_argument("--family", required=True,
                   choices=["tree", "fork", "diamond", "laakso", "cycle", "product", "heis"])
    g.add_argument("--n", type=int, default=None, help="depth/level/size/radius")
    g.add_argument("--weighting", choices=["unit", "scaled"], default="unit")
    g.add_argument("--depths", default=None, help="comma list for --family product")
    g.add_argument("--out", default=None, help="graph JSON or distance CSV to write")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("apsp", help="shortest-path distance table of a graph")
    a.add_argument("--graph", required=True)
    a.add_argument("--out", default=None, help="CSV file for the distance table")
    a.set_defaults(func=cmd_apsp)

    d = sub.add_parser("distort", help="distortion of an embedding given by vectors")
    d.add_argument("--space", required=True, help="graph JSON or distance CSV")
    d.add_argument("--vectors", required=True, help="CSV, one row per point")
    d.add_argument("--target", required=True, choices=["l1", "l2", "linf", "summing"])
    d.set_defaults(func=cmd_distort)

    l2 = sub.add_parser("l2min", help="minimum distortion into euclidean space")
    l2.add_argument("--space", required=True)
    l2.add_argument("--tol", type=float, default=1e-4)
    l2.add_argument("--emit-gram", default=None, help="CSV file for the Gram matrix")
    l2.set_defaults(func=cmd_l2min)

    mk = sub.add_parser("markov", help="Markov convexity functional of a built-in walk")
    mk.add_argument("--walk", required=True, choices=["tree", "diamond", "laakso", "path"])
    mk.add_argument("--n", type=int, required=True)
    mk.add_argument("--p", type=int, default=2)
    mk.add_argument("--mode", required=True, choices=["exact", "mc"])
    mk.add_argument("--seed", type=int, default=None)
    mk.add_argument("--samples", type=int, default=None)
    mk.add_argument("--horizon", type=int, default=None)
    mk.set_defaults(func=cmd_markov)

    rn = sub.add_parser("rnp", help="delta-trees, broken lines, martingales")
    rsub = rn.add_subparsers(dest="rnp_command", required=True)
    rt = rsub.add_parser("tree", help="verify the discretized-L1 delta-tree")
    rt.add_argument("--n", type=int, required=True)
    rt.set_defaults(func=cmd_rnp_tree)
    rl = rsub.add_parser("lines", help="broken-line geodesic family from the depth-3 bush")
    rl.add_argument("--depth", type=int, required=True)
    rl.set_defaults(func=cmd_rnp_lines)
    rm = rsub.add_parser("martingale", help="divergent martingale from a diamond embedding")
    rm.add_argument("--diamond", type=int, required=True)
    rm.add_argument("--steps", type=int, required=True)
    rm.add_argument("--control-budget", type=int, default=3)
    rm.set_defaults(func=cmd_rnp_martingale)

    orc = sub.add_parser("oracle", help="brute-force search oracles")
    osub = orc.add_subparsers(dest="oracle_command", required=True)
    oc = osub.add_parser("cycle-tree", help="minimum distortion of C_m into small trees")
    oc.add_argument("--m", type=int, required=True)
    oc.add_argument("--max-tree-vertices", type=int, required=True)
    oc.set_defaults(func=cmd_oracle_cycle_tree)
    oj = osub.add_parser("james-alpha", help="grid search for the James constant")
    oj.add_argument("--m", type=int, required=True)
    oj.add_argument("--bound", type=int, default=3)
    oj.set_defaults(func=cmd_oracle_james)

    return p


# --- subcommand implementations --------------------------------------------

def cmd_gen(args) -> dict:
    from . import generators as gen

    fam = args.family
    n = args.n
    result: dict = {"family": fam}
    if n is None and fam not in ("fork", "product"):
        raise ValidationError("--n required")
    if fam in ("tree", "fork", "cycle", "diamond", "laakso"):
        if fam == "tree":
            graph = gen.binary_tree(n)
        elif fam == "fork":
            graph = gen.fork()
        elif fam == "cycle":
            graph = gen.cycle(n)
        else:
            scaled = gen.diamond_weighting() if fam == "diamond" else gen.laakso_weighting()
            w = scaled if args.weighting == "scaled" else gen.UNIT
            rec = gen.diamond(n, w) if fam == "diamond" else gen.laakso(n, w)
            graph = rec.graph
            result.update({"source": rec.source, "sink": rec.sink})
        result.update({"vertices": graph.size, "edges": len(graph.edges)})
        if args.out:
            write_graph(args.out, graph)
            result["written"] = args.out
        return result
    if fam == "product":
        if not args.depths:
            raise ValidationError("--depths required for product")
        try:
            depths = [int(x) for x in args.depths.split(",")]
        except ValueError:
            raise ValidationError(f"--depths {args.depths!r} is not a comma list of integers") from None
        space = gen.tree_product(depths)
    else:  # heis
        space = gen.heisenberg_ball(n)
    result["points"] = space.size
    if args.out:
        write_space(args.out, space)
        result["written"] = args.out
    return result


def cmd_apsp(args) -> dict:
    from .formats import read_graph
    from .metric_core import apsp

    space = apsp(read_graph(args.graph))
    diameter = Fraction(int(space.num.max()), space.scale)
    result = {"points": space.size, "diameter": rational_str(diameter)}
    if args.out:
        write_space(args.out, space)
        result["written"] = args.out
    return result


def cmd_distort(args) -> dict:
    from .embeddings import Embedding, NormedTarget, distortion

    space = load_space_arg(args.space)
    vectors = read_vectors(args.vectors)
    if not vectors:
        raise ValidationError("empty vector file")
    target = NormedTarget(args.target, len(vectors[0]))
    rep = distortion(Embedding(space, vectors, target))
    return {
        "lip": _num(rep.lip),
        "colip": _num(rep.colip),
        "distortion": _num(rep.distortion),
        "lip_witness": list(rep.lip_witness),
        "colip_witness": list(rep.colip_witness),
    }


def cmd_l2min(args) -> dict:
    from .l2_distortion import min_distortion_l2

    space = load_space_arg(args.space)
    res = min_distortion_l2(space, tol=args.tol)
    if args.emit_gram:
        import numpy as np

        # products summed in coordinate order; + 0.0 turns a -0.0 total into
        # 0.0, as a sum that starts from 0 does
        vecs = res.embedding.table
        gram = np.cumsum(vecs[:, None, :] * vecs[None, :, :], axis=2)[:, :, -1] + 0.0
        with open(args.emit_gram, "w") as fh:
            fh.write(vectors_to_csv(gram.tolist()))
    out = {
        "c_star": res.c_star,
        "bracket": list(res.bracket),
        "verified_distortion": float(res.report.distortion),
        "probes": res.probes,
    }
    if res.undecided_probes:
        out["undecided_probes"] = list(res.undecided_probes)
    return out


def cmd_markov(args) -> dict:
    from . import markov as mk
    from . import generators as gen

    p = args.p
    if args.mode == "mc":
        if args.seed is None or args.samples is None:
            raise ValidationError("--seed and --samples are required in mc mode")
    if args.horizon is not None and args.walk in ("tree", "path"):
        raise ValidationError(f"--horizon does not apply to --walk {args.walk}")
    if args.walk == "tree":
        if args.mode == "exact":
            est = mk.tree_walk_convexity_exact(args.n, p)
        else:
            est = mk.tree_walk_convexity_mc(args.n, float(p), args.seed, args.samples)
    else:
        if args.walk == "diamond":
            fam = gen.diamond(args.n, gen.diamond_weighting())
        elif args.walk == "laakso":
            fam = gen.laakso(args.n, gen.laakso_weighting())
        else:
            fam = None
        bundle = (
            mk.lazy_path_walk(args.n)
            if fam is None
            else mk.downhill_walk(fam, horizon=args.horizon)
        )
        if args.mode == "exact":
            est = mk.exact_convexity(bundle.chain, bundle.metric_map, bundle.space, p)
        else:
            est = mk.mc_convexity(
                bundle.chain, bundle.metric_map, bundle.space, float(p), args.seed, args.samples
            )
    method: dict = {"kind": est.method.kind}
    if est.method.kind == "monteCarlo":
        method.update(
            {
                "seed": est.method.seed,
                "samples": est.method.samples,
                "lhs_stderr": est.method.lhs_stderr,
                "rhs_stderr": est.method.rhs_stderr,
            }
        )
    return {
        "lhs": _num(est.lhs),
        "rhs": _num(est.rhs),
        "piLower": est.pi_lower,
        "method": method,
    }


def cmd_rnp_tree(args) -> dict:
    from .rnp import rademacher_tree, verify_delta_tree

    tree = rademacher_tree(args.n)
    verify_delta_tree(tree)
    return {
        "depth": tree.depth,
        "atoms": tree.atoms,
        "vectors": len(tree.table.num),
        "delta": rational_str(tree.delta),
        "identities": "exact",
    }


def cmd_rnp_lines(args) -> dict:
    from .rnp import (
        broken_line_family,
        bush_gauge,
        bush_gauge_delta,
        check_line_segments,
        rademacher_tree,
        sibling_deviation,
        tree_to_bush,
    )

    check_line_segments(args.depth, 2)  # before the tree is built; its blocks have 2 vectors
    bush = tree_to_bush(rademacher_tree(args.depth))
    gauge = bush_gauge(bush)
    lines = broken_line_family(bush, args.depth)
    gd = bush_gauge_delta(bush, gauge)
    dev = sibling_deviation(bush, gauge, lines["0"], lines["1"])
    geodesic = all(line.coefficients_sum() == 1 for line in lines.values())
    return {
        "lines": len(lines),
        "gauge_delta": rational_str(gd),
        "deviation_0_1": rational_str(dev),
        "deviation_ge_half_delta": bool(dev >= gd / 2),
        "all_lines_geodesic": bool(geodesic),
    }


def cmd_rnp_martingale(args) -> dict:
    from .rnp import (
        diamond_geodesic_family,
        diamond_l1_embedding,
        martingale_check,
        martingale_from_embedding,
        thickness_alpha,
    )

    family = diamond_geodesic_family(args.diamond)
    emb = diamond_l1_embedding(family.family)
    run = martingale_from_embedding(family, emb, args.steps)
    cert = thickness_alpha(family, args.control_budget)
    report = martingale_check(run.martingale)
    need = run.ell * cert.alpha / 4
    return {
        "ell": rational_str(run.ell),
        "alpha": rational_str(cert.alpha),
        "control_budget": cert.control_budget,
        "diff_norms": [rational_str(d) for d in run.diff_norms],
        "required_lower_bound": rational_str(need),
        "diffs_meet_bound": bool(all(d >= need for d in run.diff_norms)),
        "martingale_valid": report.valid,
    }


def cmd_oracle_cycle_tree(args) -> dict:
    from .embeddings import cycle_tree_lower_oracle

    res = cycle_tree_lower_oracle(args.m, args.max_tree_vertices)
    return {
        "m": res.m,
        "max_tree_vertices": res.max_tree_vertices,
        "min_distortion": None if res.min_distortion is None else rational_str(res.min_distortion),
        "bound": rational_str(res.bound),
        "maps_searched": res.maps_searched,
    }


def cmd_oracle_james(args) -> dict:
    from .embeddings import james_alpha

    res = james_alpha(args.m, args.bound)
    return {
        "analytic_bound": rational_str(res.analytic_bound),
        "empirical": rational_str(res.empirical),
        "witness_coeffs": list(res.witness_coeffs),
        "witness_j": res.witness_j,
    }


def _num(x):
    if isinstance(x, (int, Fraction)):
        return rational_str(Fraction(x))
    return float(x)


if __name__ == "__main__":
    sys.exit(main())
