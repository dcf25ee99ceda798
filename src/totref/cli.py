"""Command-line front end: analyze graphs, build/lift/verify complex windows.

Every subcommand parses the same shared options.  ``_SHARED`` says which of
``--seed``, ``--forward``, ``--backward`` and ``--degree-bound`` each one
reads, and their defaults; ``_configure`` refuses the others, fills in the
defaults and sets ``args.field``, and their help is written from it.

Exit codes: 0 = a verdict was produced (including negative verdicts),
2 = inconclusive, 1 = error (a usage error too).  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

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


# the shared options each subcommand reads, with their defaults (None: no
# default); every other subcommand refuses them, even at these values
_SHARED = {
    "analyze": {"seed": 0, "forward": 2, "backward": 2},
    "build": {"seed": 0, "forward": 4, "backward": 4},
    "factory": {"seed": 0, "forward": 4, "backward": 4},
    "lift": {"degree_bound": 5},
    "verify": {"degree_bound": None},
}


def _readers(name) -> str:
    """The subcommands that read a shared option, listed as in a sentence."""
    *rest, last = [command for command, reads in _SHARED.items() if name in reads]
    return f"{', '.join(rest)} and {last}"


def _help(text, name) -> str:
    """The help of a shared option, with the default of each subcommand that reads it."""
    defaults = (f"{c} {'none' if r[name] is None else r[name]}" for c, r in _SHARED.items() if name in r)
    return f"{text} (default: {', '.join(defaults)})"


def _configure(args) -> None:
    """Refuse the shared options the subcommand does not read, fill in the
    defaults of those it reads, check the values and set ``args.field``."""
    reads = _SHARED[args.command]
    for name in dict.fromkeys(n for options in _SHARED.values() for n in options):
        if name in reads:
            if getattr(args, name) is None:
                setattr(args, name, reads[name])
        elif getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies to {_readers(name)} only")
    if args.rational and args.prime is not None:
        raise ValueError("--prime and --rational exclude each other")
    if args.rational:
        args.field = RationalField()
    else:
        args.field = PrimeField(DEFAULT_PRIME if args.prime is None else args.prime)
    if args.degree_bound is not None and args.degree_bound < 2:
        raise ValueError("--degree-bound must be at least 2")
    if any(n is not None and n < 0 for n in (args.forward, args.backward)):
        raise ValueError("--forward and --backward must be non-negative")
    if args.retries < 1:
        raise ValueError("--retries must be at least 1")


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


def emit_report(report: dict, args, stream=None):
    stream = stream or sys.stdout
    if args.json:
        json.dump(report, stream, indent=2)
        stream.write("\n")
    else:
        stream.write("\n".join(_render_text(report)) + "\n")


def _partition_from_pair(graph: Graph, pair):
    """Vertex components after removing the disconnecting pair: first vs rest."""
    first = graph.components(removed=pair)[0]
    rest = [v for v in graph.vertices if v not in first and v not in pair]
    return [v for v in graph.vertices if v in first], rest


def _reduce(graph: Graph, args):
    """The reduction chain: canonical forms for a bipartite graph, else generic."""
    mode = "canonical" if graph.is_bipartite() else "generic"
    return reduction_chain(
        graph, mode=mode, seed=args.seed, cutoff=3, field=args.field, retries=args.retries
    )


def _search_ezd(graph: Graph, R, args, rng):
    """Search R for exact zero divisors, by the X/Y sign flip when bipartite."""
    x_labels = set(graph.bipartition[0]) if graph.is_bipartite() else None
    return find_ezd(R, trials=args.retries, rng=rng, x_labels=x_labels)


def cmd_analyze(args) -> int:
    graph = load_graph(args.graph)
    if not graph.is_connected():
        raise GraphError("analysis requires a connected graph")
    rng = Random(args.seed)
    report = {"graph": {"n": graph.n, "e": graph.e, "bipartite": graph.is_bipartite()}}
    conditions = necessary_conditions(graph)
    report["conditions"] = conditions.to_json()

    chain = _reduce(graph, args)
    R = chain.bottom
    expected = list(chain.expected_artinian_hilbert())
    report["reduction"] = {
        "field": field_to_json(args.field),
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
        l1c = [args.field.rand(rng) for _ in graph.vertices]
        l2c = [args.field.rand(rng) for _ in graph.vertices]
    lc = [args.field.rand(rng) for _ in graph.vertices]
    ks = kernel_system(graph, l1c, l2c, lc, args.field)
    report["kernel_system"] = dict(
        ks.to_json(), wlp_equivalence_applicable=conditions.edge_count_ok
    )

    pair = _search_ezd(graph, R, args, rng)
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
            start = random_blocks(special, rng, max_retries=args.retries)
            _, frep = build_window(special, start, args.forward, args.backward)
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
    emit_report(report, args)
    return 2 if verdict == "inconclusive" else 0


def _lines(bracket, indents) -> str:
    """One line per indent, holding the bracket, as json.dumps(..., indent=1)
    opens or closes lists."""
    return "".join(f"\n{' ' * d}{bracket}" for d in indents)


def _complex_text(window: FreeComplexWindow) -> str:
    """json.dumps(window.to_json(), indent=1), byte for byte, without running
    Python's pure-Python encoder over the differentials.  They are dumped
    compactly by the C encoder.  Their coordinates sit at indent 5, inside
    lists at indents 1 to 4, and are ints or "n/d" strings, which hold no
    bracket or comma; so the separator between two coordinates that closes
    and reopens k lists, "]" * k + "," + "[" * k, becomes its indented form,
    deepest first.  A window with no differential, or with a matrix without
    entries, is dumped by json.dumps."""
    obj = window.to_json()
    if not window.diffs or not all(D.size for D in window.diffs):
        return json.dumps(obj, indent=1)
    body = json.dumps(obj["differentials"], separators=(",", ":"))
    for k in (3, 2, 1):  # through placeholders, so that the commas are left alone
        body = body.replace("]" * k + "," + "[" * k, chr(k))
    body = body.replace(",", ",\n" + " " * 5)
    for k in (3, 2, 1):
        sep = _lines("]", range(4, 4 - k, -1)) + "," + _lines("[", range(5 - k, 5))
        body = body.replace(chr(k), sep + "\n" + " " * 5)
    # the outer brackets: "[[[[" and "]]]]"
    body = "[" + _lines("[", (2, 3, 4)) + "\n" + " " * 5 + body[4:-4] + _lines("]", (4, 3, 2, 1))
    obj["differentials"] = []
    # the one key at indent 1 (no string holds a raw newline)
    head, _, tail = json.dumps(obj, indent=1).partition('\n "differentials": []')
    return head + '\n "differentials": ' + body + tail


def _write_complex(window: FreeComplexWindow, report: dict, args) -> None:
    payload = _complex_text(window)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        emit_report(report, args)
    else:
        sys.stdout.write(payload + "\n")
        emit_report(report, args, stream=sys.stderr)


def _load_build_graph(args) -> Graph:
    if args.section4:
        if args.graph is not None:
            raise ValueError("a graph file and --section4 exclude each other")
        return ten_vertex_graph()
    if not args.graph:
        raise GraphError("provide a graph file or --section4")
    return load_graph(args.graph)


def cmd_build(args) -> int:
    if args.canonical and args.mode != "factory":
        raise ValueError("--canonical applies to factory windows only")
    graph = _load_build_graph(args)
    rng = Random(args.seed)
    if args.mode == "ezd":
        R = _reduce(graph, args).bottom
        pair = _search_ezd(graph, R, args, rng)
        if pair is None:
            emit_report({"mode": "ezd", "status": "no exact zero divisor found"}, args)
            return 2
        window = ezd_complex(R, pair, half_length=max(args.forward, args.backward))
        cert = full_certification(window)
        report = {
            "mode": "ezd",
            "pair": pair.to_json(),
            "certificate": cert.to_json(),
            "status": "certified" if cert.certified else "failed",
        }
        _write_complex(window, report, args)
        return 0 if cert.certified else 2
    # factory mode
    conditions = necessary_conditions(graph)
    if not (graph.is_bipartite() and conditions.disconnecting_pair):
        emit_report({"mode": "factory", "status": "graph has no disconnecting pair"}, args)
        return 2
    part_a, part_b = _partition_from_pair(graph, conditions.disconnecting_pair)
    special = SpecialRing(_reduce(graph, args), part_a, part_b)
    if args.canonical:
        window, frep = canonical_window(special, args.forward, args.backward)
    else:
        start = random_blocks(special, rng, max_retries=args.retries)
        window, frep = build_window(special, start, args.forward, args.backward)
    no_ezd_cert = {"disconnecting_pair": list(conditions.disconnecting_pair)}
    indec = indecomposability_certificate(special.ring, window, 0, no_ezd_cert)
    report = {
        "mode": "factory",
        "ring": special.to_json(),
        "report": frep.to_json(),
        "cokernel_indecomposability": indec.to_json(),
        "status": "certified" if frep.certified else "failed",
    }
    _write_complex(window, report, args)
    return 0 if frep.certified else 2


def _read_complex(args) -> dict:
    """The JSON of a complex file.  Its field comes from the file: an explicit
    --prime or --rational must name the same one."""
    with open(args.complex, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:
            raise ComplexError("complex file is nested too deeply to read") from exc
    if not isinstance(obj, dict) or obj.get("format") != "complex":
        raise ComplexError("input is not a complex file")
    entry = obj.get("algebra")
    if (args.rational or args.prime is not None) and isinstance(entry, dict) and "field" in entry:
        field = field_from_json(entry["field"])
        if field != args.field:
            raise ComplexError(f"complex file is over {field}, not {args.field}")
    return obj


def cmd_lift(args) -> int:
    if args.steps not in (1, 2):
        raise ValueError("--steps must be 1 or 2 (the reduction chain has two steps)")
    if args.degree_bound < 3:
        raise ValueError("--degree-bound of lift must be at least 3, the cutoff of the bottom ring")
    obj = _read_complex(args)
    # each step drops the lowest index, and the last lifted window needs an
    # interior index, so two differentials must outlast the steps
    diffs = obj.get("differentials")
    if isinstance(diffs, list) and len(diffs) < args.steps + 2:
        raise ComplexError(
            f"lift --steps {args.steps} needs a window of at least {args.steps + 2} "
            f"differentials, and this one has {len(diffs)}"
        )
    chain, level = chain_from_json(obj.get("algebra"), args.degree_bound, args.retries)
    bottom = len(chain.steps)
    if level != bottom:
        raise ComplexError(f"lifting needs a complex over the bottom ring of its chain (level {bottom})")
    window = FreeComplexWindow.from_json(obj, algebra=chain.bottom)
    qmaps = chain.steps[::-1][: args.steps]
    lifted, step_reports = lift_through_sequence(window, qmaps)
    report = {
        "steps": [s.to_json() for s in step_reports],
        "final_betti": list(lifted.betti),
        "status": "certified" if all(s.certified for s in step_reports) else "failed",
    }
    _write_complex(lifted, report, args)
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
    obj = _read_complex(args)
    window = FreeComplexWindow.from_json(obj, retries=args.retries)
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
        emit_report(report, args)
        return 0
    cert = full_certification(window, args.degree_bound)
    report = cert.to_json()
    if window.periodic is not None:
        report["periodic_verified"] = window.periodic.verified
    emit_report(report, args)
    return 0


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
    # every subcommand shares these option objects, so none of them may get a
    # set_defaults: _configure fills in each subcommand's own defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--prime", type=int, default=None,
        help=f"prime for GF(p) mode (default {DEFAULT_PRIME}; lift and verify: the file's field)",
    )
    common.add_argument("--rational", action="store_true", help="use exact rationals instead of GF(p)")
    common.add_argument("--degree-bound", type=int, help=_help(
        "internal degree bound for exactness checks; for lift only the cutoff of the written ring",
        "degree_bound",
    ))
    common.add_argument("--seed", type=int, help=_help("seed for all randomized choices", "seed"))
    common.add_argument("--retries", type=int, default=64, help="resampling / search budget")
    common.add_argument("--forward", type=int, help=_help("window extension steps forward", "forward"))
    common.add_argument("--backward", type=int, help=_help("window extension steps backward", "backward"))
    common.add_argument("--json", action="store_true", help="emit reports as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full condition report for a graph")
    p.add_argument("graph", help="graph JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", parents=[common], help="build a certified window")
    p.add_argument("graph", nargs="?", help="graph JSON file")
    p.add_argument("--section4", action="store_true", help="use the built-in ten-vertex graph")
    p.add_argument("--mode", choices=("ezd", "factory"), default="ezd")
    p.add_argument("--canonical", action="store_true", help="use the explicit periodic blocks")
    p.add_argument("--out", help="output path for the complex JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("factory", parents=[common], help="window over the built-in special ring")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out", help="output path for the complex JSON")
    p.set_defaults(func=cmd_build, graph=None, section4=True, mode="factory")

    p = sub.add_parser("lift", parents=[common], help="lift a window up its reduction chain")
    p.add_argument("complex", help="complex JSON file (with chain descriptor)")
    p.add_argument("--steps", type=int, default=2, help="how many chain steps to lift: 1 or 2")
    p.add_argument("--out", help="output path for the lifted complex JSON")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", parents=[common], help="re-verify a complex file")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _configure(args)
        return args.func(args)
    except SystemExit as exc:  # from the parser: 0 after --help, 1 after a usage error
        return exc.code
    except (GraphError, AlgebraError, ComplexError, LiftError, FactoryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
