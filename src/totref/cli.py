"""Command-line front end: analyze graphs, build/lift/verify complex windows.

Exit codes: 0 = a verdict was produced (including negative verdicts),
2 = inconclusive, 1 = error (a usage error too).  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from random import Random
from typing import Optional

from .algebra import AlgebraError, chain_from_json, reduction_chain
from .analysis import (
    find_ezd,
    ideal_pair_analysis,
    kernel_system,
    wlp_generic,
    necessary_ring_conditions,
)
from .complexes import (
    ComplexError, FreeComplexWindow, ezd_complex, full_certification, indecomposability_certificate
)
from .factory import (
    FactoryError,
    SpecialRing,
    build_window,
    canonical_window,
    random_blocks,
    ten_vertex_graph,
)
from .fields import DEFAULT_PRIME, PrimeField, RationalField, field_from_json, field_to_json
from .graphs import Graph, GraphError, load_graph, necessary_conditions
from .lifting import LiftError, lift_through_sequence


# the subcommands that read each of these shared options; the others refuse it
_READ_BY = {
    "degree_bound": ("lift", "verify"),
    **dict.fromkeys(("seed", "forward", "backward"), ("analyze", "build", "factory")),
}


@dataclass
class RunConfig:
    field: object
    degree_bound: Optional[int]  # None: no bound was given
    seed: Optional[int]  # None (like forward and backward) where not read
    retries: int
    forward: Optional[int]
    backward: Optional[int]
    as_json: bool

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        for name, commands in _READ_BY.items():
            if args.command not in commands and getattr(args, name) is not None:
                option = "--" + name.replace("_", "-")
                listed = ", ".join(commands[:-1]) + " and " + commands[-1]
                raise ValueError(f"{option} applies to {listed} only")
        if args.rational and args.prime is not None:
            raise ValueError("--prime and --rational exclude each other")
        if args.rational:
            field = RationalField()
        else:
            field = PrimeField(DEFAULT_PRIME if args.prime is None else args.prime)
        if args.degree_bound is not None and args.degree_bound < 2:
            raise ValueError("--degree-bound must be at least 2")
        if any(n is not None and n < 0 for n in (args.forward, args.backward)):
            raise ValueError("--forward and --backward must be non-negative")
        if args.retries < 1:
            raise ValueError("--retries must be at least 1")
        return cls(
            field=field,
            degree_bound=args.degree_bound,
            seed=args.seed,
            retries=args.retries,
            forward=args.forward,
            backward=args.backward,
            as_json=args.json,
        )


def _render_text(obj, indent=0, out=None):
    pad = "  " * indent
    lines = out if out is not None else []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}{k}:")
                _render_text(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_fmt_scalar(item)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(obj)}")
    return lines


def _is_scalar_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _fmt_scalar(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def emit_report(report: dict, config: RunConfig, stream=None):
    stream = stream or sys.stdout
    if config.as_json:
        json.dump(report, stream, indent=2)
        stream.write("\n")
    else:
        stream.write("\n".join(_render_text(report)) + "\n")


def _partition_from_pair(graph: Graph, pair):
    """Vertex components after removing the disconnecting pair: first vs rest."""
    sub = graph.induced_without(pair)
    first = sub.components()[0]
    return [v for v in sub.vertices if v in first], [v for v in sub.vertices if v not in first]


def _reduce(graph: Graph, config: RunConfig):
    """The reduction chain: canonical forms for a bipartite graph, else generic."""
    mode = "canonical" if graph.is_bipartite() else "generic"
    return reduction_chain(
        graph, mode=mode, seed=config.seed, cutoff=3, field=config.field, retries=config.retries
    )


def _search_ezd(graph: Graph, R, config: RunConfig, rng):
    """Search R for exact zero divisors, by the X/Y sign flip when bipartite."""
    if graph.is_bipartite():
        return find_ezd(
            R, "bipartite-canonical", trials=config.retries, rng=rng,
            x_labels=set(graph.bipartition[0]),
        )
    return find_ezd(R, "random", trials=config.retries, rng=rng)


def cmd_analyze(args) -> int:
    config = RunConfig.from_args(args)
    graph = load_graph(args.graph)
    if not graph.is_connected():
        raise GraphError("analysis requires a connected graph")
    rng = Random(config.seed)
    report = {"graph": {"n": graph.n, "e": graph.e, "bipartite": graph.is_bipartite()}}
    conditions = necessary_conditions(graph)
    report["conditions"] = conditions.to_json()

    chain = _reduce(graph, config)
    R = chain.bottom
    expected = list(chain.expected_artinian_hilbert())
    report["reduction"] = {
        "field": field_to_json(config.field),
        "mode": chain.mode,
        "hilbert": list(R.dims),
        "expected": expected,
        "hilbert_ok": list(R.dims) == expected,
    }
    yr = necessary_ring_conditions(R)
    report["ring_conditions"] = yr.to_json()

    has_wlp, hits, witness = wlp_generic(R, rng, trials=8)
    report["wlp"] = {"trials": 8, "surjective_samples": hits, "has_wlp": has_wlp}

    if chain.mode == "canonical":
        xs, ys = graph.bipartition
        l1c = [1 if v in set(xs) else 0 for v in graph.vertices]
        l2c = [1 if v in set(ys) else 0 for v in graph.vertices]
    else:
        l1c = [config.field.rand(rng) for _ in graph.vertices]
        l2c = [config.field.rand(rng) for _ in graph.vertices]
    lc = [config.field.rand(rng) for _ in graph.vertices]
    ks = kernel_system(graph, l1c, l2c, lc, config.field)
    report["kernel_system"] = dict(
        ks.to_json(), wlp_equivalence_applicable=conditions.edge_count_ok
    )

    pair = _search_ezd(graph, R, config, rng)
    report["ezd"] = {"found": pair is not None}
    if pair is not None:
        report["ezd"]["pair"] = pair.to_json()

    no_ezd_cert = None
    if conditions.disconnecting_pair and conditions.edge_count_ok:
        no_ezd_cert = {"disconnecting_pair": list(conditions.disconnecting_pair)}
    report["no_ezd_certificate"] = no_ezd_cert

    ideal_report = None
    special = None
    if graph.is_bipartite() and conditions.disconnecting_pair:
        part_a, part_b = _partition_from_pair(graph, conditions.disconnecting_pair)
        gens_a = [chain.image(v) for v in part_a]
        gens_b = [chain.image(v) for v in part_b]
        ideal_report = ideal_pair_analysis(R, gens_a, gens_b)
        report["ideal_pair"] = dict(
            ideal_report.to_json(), partition=[part_a, part_b]
        )
        if pair is None and ideal_report.verdict != "no-non-free-TR":
            try:
                special = SpecialRing(chain, part_a, part_b)
            except FactoryError as exc:
                report["factory"] = {"attempted": True, "applicable": False, "reason": str(exc)}

    factory_ok = False
    if special is not None:
        try:
            start = random_blocks(special, rng, max_retries=config.retries)
            _, frep = build_window(special, start, config.forward, config.backward)
            factory_ok = frep.certified
            report["factory"] = {
                "attempted": True,
                "applicable": True,
                "certified": factory_ok,
                "ring": special.to_json(),
            }
        except FactoryError as exc:
            report["factory"] = {"attempted": True, "applicable": True, "certified": False, "reason": str(exc)}

    if yr.verdict == "no-non-free-TR":
        verdict = "no-non-free-TR"
    elif ideal_report is not None and ideal_report.verdict == "no-non-free-TR":
        verdict = "no-non-free-TR"
    elif pair is not None:
        verdict = "admits (ezd witness)"
    elif factory_ok:
        verdict = "admits (factory witness)"
    else:
        verdict = "inconclusive"
    report["verdict"] = verdict
    emit_report(report, config)
    return 2 if verdict == "inconclusive" else 0


def _write_complex(window: FreeComplexWindow, report: dict, args, config: RunConfig) -> None:
    payload = json.dumps(window.to_json(), indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        emit_report(report, config)
    else:
        sys.stdout.write(payload + "\n")
        emit_report(report, config, stream=sys.stderr)


def _load_build_graph(args) -> Graph:
    if getattr(args, "section4", False):
        return ten_vertex_graph()
    if not args.graph:
        raise GraphError("provide a graph file or --section4")
    return load_graph(args.graph)


def cmd_build(args) -> int:
    config = RunConfig.from_args(args)
    graph = _load_build_graph(args)
    rng = Random(config.seed)
    if args.mode == "ezd":
        R = _reduce(graph, config).bottom
        pair = _search_ezd(graph, R, config, rng)
        if pair is None:
            emit_report({"mode": "ezd", "status": "no exact zero divisor found"}, config)
            return 2
        window = ezd_complex(R, pair, half_length=max(config.forward, config.backward))
        cert = full_certification(window)
        report = {
            "mode": "ezd",
            "pair": pair.to_json(),
            "certificate": cert.to_json(),
            "status": "certified" if cert.certified else "failed",
        }
        _write_complex(window, report, args, config)
        return 0 if cert.certified else 2
    # factory mode
    conditions = necessary_conditions(graph)
    if not (graph.is_bipartite() and conditions.disconnecting_pair):
        emit_report({"mode": "factory", "status": "graph has no disconnecting pair"}, config)
        return 2
    part_a, part_b = _partition_from_pair(graph, conditions.disconnecting_pair)
    special = SpecialRing(_reduce(graph, config), part_a, part_b)
    if args.canonical:
        window, frep = canonical_window(special, config.forward, config.backward)
    else:
        start = random_blocks(special, rng, max_retries=config.retries)
        window, frep = build_window(special, start, config.forward, config.backward)
    no_ezd_cert = {"disconnecting_pair": list(conditions.disconnecting_pair)}
    indec = indecomposability_certificate(special.ring, window, 0, no_ezd_cert)
    report = {
        "mode": "factory",
        "ring": special.to_json(),
        "report": frep.to_json(),
        "cokernel_indecomposability": indec.to_json(),
        "status": "certified" if frep.certified else "failed",
    }
    _write_complex(window, report, args, config)
    return 0 if frep.certified else 2


def cmd_factory(args) -> int:
    args.graph = None
    args.section4 = True
    args.mode = "factory"
    return cmd_build(args)


def _read_complex(args, config: RunConfig) -> dict:
    """The JSON of a complex file.  Its field comes from the file: an explicit
    --prime or --rational must name the same one."""
    with open(args.complex, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format") != "complex":
        raise ComplexError("input is not a complex file")
    entry = obj.get("algebra")
    if (args.rational or args.prime is not None) and isinstance(entry, dict) and "field" in entry:
        field = field_from_json(entry["field"])
        if field != config.field:
            raise ComplexError(f"complex file is over {field}, not {config.field}")
    return obj


def cmd_lift(args) -> int:
    config = RunConfig.from_args(args)
    if args.steps not in (1, 2):
        raise ValueError("--steps must be 1 or 2 (the reduction chain has two steps)")
    obj = _read_complex(args, config)
    chain, level = chain_from_json(obj.get("algebra"), max(config.degree_bound, 3), config.retries)
    if level != 2:
        raise ComplexError("lifting needs a complex over the bottom ring of its chain (level 2)")
    window = FreeComplexWindow.from_json(obj, algebra=chain.bottom)
    qmaps = [chain.steps[1], chain.steps[0]][: args.steps]
    lifted, step_reports = lift_through_sequence(window, qmaps)
    report = {
        "steps": [s.to_json() for s in step_reports],
        "final_betti": list(lifted.betti),
        "status": "certified" if all(s.certified for s in step_reports) else "failed",
    }
    _write_complex(lifted, report, args, config)
    return 0 if report["status"] == "certified" else 2


def _constants_nonzero(obj, field) -> bool:
    consts = obj.get("constants")
    if not consts:
        return False
    try:
        values = [field.decode(c) for mat in consts for row in mat for c in row]
    except (TypeError, ValueError) as exc:
        raise ComplexError(f"complex file differentials are malformed: constants: {exc}") from exc
    return any(not field.is_zero(c) for c in values)


def cmd_verify(args) -> int:
    config = RunConfig.from_args(args)
    obj = _read_complex(args, config)
    window = FreeComplexWindow.from_json(obj, retries=config.retries)
    has_units = _constants_nonzero(obj, window.algebra.field)
    if has_units:
        # constant terms make the stored linear matrices a different complex;
        # report non-minimality instead of certifying anything
        report = {
            "minimal": False,
            "composes": "skipped (unit entries)",
            "exactness": "skipped (unit entries)",
            "certified": False,
        }
        emit_report(report, config)
        return 0
    cert = full_certification(window, config.degree_bound)
    report = cert.to_json()
    if window.periodic is not None:
        report["periodic_verified"] = window.periodic.verified
    emit_report(report, config)
    return 0


def _common_options() -> argparse.ArgumentParser:
    """The options every subcommand shares, in a fresh parent parser: argparse
    shares a parent's option objects with each parser built from it, so one
    parent per subcommand keeps a set_defaults from leaking into the others."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--prime", type=int, default=None,
        help=f"prime for GF(p) mode (default {DEFAULT_PRIME}; lift and verify: the file's field)",
    )
    common.add_argument("--rational", action="store_true", help="use exact rationals instead of GF(p)")
    common.add_argument(
        "--degree-bound", type=int, default=None,
        help="internal degree bound for exactness checks, lift and verify only "
        "(lift: only the cutoff of the written ring, default 5)",
    )
    common.add_argument("--seed", type=int, help="seed for all randomized choices (default 0)")
    common.add_argument("--retries", type=int, default=64, help="resampling / search budget")
    common.add_argument("--forward", type=int, help="window extension steps forward (default 4)")
    common.add_argument("--backward", type=int, help="window extension steps backward (default 4)")
    common.add_argument("--json", action="store_true", help="emit reports as JSON")
    return common


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line and exit 1, as every other error."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="totref",
        description="Exact certification of totally reflexive module witnesses "
        "over Artinian reductions of graph rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[_common_options()], help="full condition report for a graph")
    p.add_argument("graph", help="graph JSON file")
    p.set_defaults(func=cmd_analyze, seed=0, forward=2, backward=2)

    p = sub.add_parser("build", parents=[_common_options()], help="build a certified window")
    p.add_argument("graph", nargs="?", help="graph JSON file")
    p.add_argument("--section4", action="store_true", help="use the built-in ten-vertex graph")
    p.add_argument("--mode", choices=("ezd", "factory"), default="ezd")
    p.add_argument("--canonical", action="store_true", help="use the explicit periodic blocks")
    p.add_argument("--out", help="output path for the complex JSON")
    p.set_defaults(func=cmd_build, seed=0, forward=4, backward=4)

    p = sub.add_parser("factory", parents=[_common_options()], help="window over the built-in special ring")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out", help="output path for the complex JSON")
    p.set_defaults(func=cmd_factory, seed=0, forward=4, backward=4)

    p = sub.add_parser("lift", parents=[_common_options()], help="lift a window up its reduction chain")
    p.add_argument("complex", help="complex JSON file (with chain descriptor)")
    p.add_argument("--steps", type=int, default=2, help="how many chain steps to lift: 1 or 2")
    p.add_argument("--out", help="output path for the lifted complex JSON")
    p.set_defaults(func=cmd_lift, degree_bound=5)

    p = sub.add_parser("verify", parents=[_common_options()], help="re-verify a complex file")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from the parser: 0 after --help, 1 after a usage error
        return exc.code
    except (GraphError, AlgebraError, ComplexError, LiftError, FactoryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
