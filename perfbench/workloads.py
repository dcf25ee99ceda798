"""Workloads of the totref benchmark: seeded inputs, CLI ops and their oracle.

A workload is a list of ``Op``s, each one ``totref`` CLI command.  A pass runs
every op once, in order.  Inputs are generated from the workload seed into a
scratch directory; they are never filtered by outcome.  Each op carries a
check that returns ``None`` for a correct report or a one-line reason.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

NO_TR = "no-non-free-TR"
EZD = "admits (ezd witness)"
FACTORY = "admits (factory witness)"

# Committed graphs whose verdict no structural rule below decides.
KNOWN_VERDICTS = {"ten_vertex": FACTORY}


@dataclass
class Op:
    label: str  # stable within a workload and seed; keys digests and timings
    argv: list
    check: Callable[[dict], Optional[str]]
    outputs: list = field(default_factory=list)  # files the op writes

    @property
    def command(self):
        return self.argv[0]


def _seed(rng):
    return str(rng.randrange(2**31))


# -- inputs --------------------------------------------------------------------


def k2m_graph(m, rng):
    """K_{2,m} (n = m+2, e = 2n-4) with seeded vertex and edge order."""
    xs = ["u1", "u2"]
    ys = [f"w{j}" for j in range(1, m + 1)]
    vertices = xs + ys
    edges = [[x, y] for x in xs for y in ys]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def pendant_graph(m, rng):
    """K_{2,m} plus one leaf on a seeded vertex: no build order exists."""
    g = k2m_graph(m, rng)
    g["edges"].append([rng.choice(g["vertices"]), "leaf"])
    g["vertices"].append("leaf")
    return g


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- oracle --------------------------------------------------------------------


def expected_verdict(graph, name):
    """The analyze verdict, decided from the graph alone (None if unknown)."""
    vertices, edges = graph["vertices"], graph["edges"]
    n, e = len(vertices), len(edges)
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaf = any(len(nb) == 1 for nb in adj.values())
    triangle = any(adj[u] & adj[v] for u, v in edges)
    if e != 2 * n - 4 or leaf or triangle:
        return NO_TR
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if all(adj[w] == {u, v} for w in vertices if w not in (u, v)):
                return EZD  # K_{2,m}, with hubs u and v
    return KNOWN_VERDICTS.get(name)


def _recheck_ezd(graph_path, pair, seed):
    """Re-certify a reported pair on a freshly built reduction."""
    from totref.algebra import reduction_chain
    from totref.analysis import verify_ezd
    from totref.fields import PrimeField
    from totref.graphs import load_graph

    field_ = PrimeField()
    chain = reduction_chain(load_graph(graph_path), mode="canonical", seed=seed, field=field_)
    R = chain.bottom
    a = R.element(1, [field_.decode(c) for c in pair["a"]])
    b = R.element(1, [field_.decode(c) for c in pair["b"]])
    return verify_ezd(R, a, b)


def analyze_check(graph_path, name, seed):
    graph = _read_json(graph_path)
    n, e = len(graph["vertices"]), len(graph["edges"])
    want = expected_verdict(graph, name)

    def check(report):
        if want is None:
            return f"no expected verdict for {name}"
        red = report["reduction"]
        if red["hilbert_ok"] is not True or red["hilbert"] != [1, n - 2, e - n + 1, 0]:
            return f"Hilbert function {red['hilbert']} for n={n}, e={e}"
        if report["verdict"] != want:
            return f"verdict {report['verdict']!r}, expected {want!r}"
        if want == EZD:
            pair = report["ezd"].get("pair")
            if not pair or not pair["certified"]:
                return "no certified ezd pair"
            if not _recheck_ezd(graph_path, pair, seed):
                return "reported ezd pair fails verify_ezd on a rebuilt reduction"
        return None

    return check


def status_check(report):
    if report.get("status") != "certified":
        return f"status {report.get('status')!r}"
    return None


def lift_check(source_path, steps):
    def check(report):
        bad = status_check(report)
        if bad:
            return bad
        if len(report["steps"]) != steps:
            return f"{len(report['steps'])} lift steps ran, {steps} asked"
        if not all(
            s["regular"] and s["cancellation"] and s["certificate"]["certified"]
            for s in report["steps"]
        ):
            return "a lift step is not certified"
        # each step maps index i to F_i + F_(i-1) and drops the lowest index,
        # so a window of constant rank b comes back with rank 4b
        want = _read_json(source_path)["betti"]
        for _ in report["steps"]:
            want = [lo + hi for lo, hi in zip(want, want[1:])]
        if report["final_betti"] != want:
            return f"final_betti {report['final_betti']}, expected {want}"
        return None

    return check


def verify_check(report):
    if report.get("certified") is not True:
        return f"certified {report.get('certified')!r}"
    return None


# -- workloads -----------------------------------------------------------------


def analyze_family(seed, work, graphs_dir, smoke=False):
    rng = Random(seed)
    sizes, pendant_m = ((3, 4), 3) if smoke else ((12, 16, 20, 22), 8)
    committed = ("four_cycle", "path4") if smoke else (
        "four_cycle", "path4", "ten_vertex", "two_blocks_hub"
    )
    inputs = []
    for m in sizes:
        path = os.path.join(work, f"k2_{m}.json")
        _write_json(path, k2m_graph(m, rng))
        inputs.append((f"k2_{m}", path))
    path = os.path.join(work, f"k2_{pendant_m}_leaf.json")
    _write_json(path, pendant_graph(pendant_m, rng))
    inputs.append((f"k2_{pendant_m}_leaf", path))
    inputs += [(name, os.path.join(graphs_dir, name + ".json")) for name in committed]
    ops = []
    for name, path in inputs:
        s = _seed(rng)
        ops.append(Op(
            f"analyze {name}",
            ["analyze", path, "--json", "--seed", s],
            analyze_check(path, name, int(s)),
        ))
    return ops


def lift_chain(seed, work, graphs_dir, smoke=False):
    rng = Random(seed)
    # (graph, build mode, lift degree bound)
    if smoke:
        sources = [("four_cycle", "ezd", "4")]
    else:
        sources = [("ten_vertex", "factory", "5"), ("four_cycle", "ezd", "7")]
    built = {name: os.path.join(work, name + ".json") for name, _, _ in sources}
    lifted = {name: os.path.join(work, name + "_lifted.json") for name, _, _ in sources}
    ops = []
    for name, mode, _ in sources:
        ops.append(Op(
            f"build {name}",
            ["build", os.path.join(graphs_dir, name + ".json"), "--mode", mode,
             "--json", "--seed", _seed(rng), "--out", built[name]],
            status_check, [built[name]],
        ))
    for name, _, bound in sources:
        ops.append(Op(
            f"lift {name}",
            ["lift", built[name], "--steps", "2", "--degree-bound", bound,
             "--json", "--out", lifted[name]],
            lift_check(built[name], 2), [lifted[name]],
        ))
    for name, _, _ in sources:
        ops.append(Op(f"verify {name}", ["verify", lifted[name], "--json"], verify_check))
    return ops


def factory_batch(seed, work, graphs_dir, smoke=False):
    rng = Random(seed)
    n_gf, n_rat, length = (2, 1, "1") if smoke else (24, 3, "4")
    window = ["--forward", length, "--backward", length, "--json"]
    runs = [(f"gf{i}", ["--seed", _seed(rng)]) for i in range(n_gf)]
    runs.append(("canonical", ["--canonical"]))
    runs += [(f"rational{i}", ["--rational", "--seed", _seed(rng)]) for i in range(n_rat)]
    ops = []
    for name, extra in runs:
        out = os.path.join(work, f"factory_{name}.json")
        ops.append(Op(
            f"factory {name}", ["factory", *extra, *window, "--out", out], status_check, [out],
        ))
    return ops


# name -> (builder, one-line reason it is in the benchmark)
WORKLOADS = {
    "analyze-family": (
        analyze_family,
        "analyze on K_{2,m} m=12..22, a leafed K_{2,8} and graphs/*.json: "
        "quadratic_presentation and the factorial build_order dominate; nothing is lifted",
    ),
    "lift-chain": (
        lift_chain,
        "build, two-step lift and verify of ten_vertex and four_cycle windows: "
        "large GF(p) eliminations on the numpy path (block_matrix, rank) and JSON I/O",
    ),
    "factory-batch": (
        factory_batch,
        "24 seeded random factory windows, the canonical one and 3 over Q: "
        "thousands of tiny rref/solve calls on the list path and Fraction arithmetic",
    ),
}
