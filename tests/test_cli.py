import contextlib
import functools
import hashlib
import io
import json
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from totref import GradedAlgebra, ten_vertex_graph
from totref.cli import main
from totref.fields import DEFAULT_PRIME


def write_graph(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    return write_graph(
        tmp_path,
        "c4.json",
        {
            "vertices": ["x1", "x2", "y1", "y2"],
            "edges": [["x1", "y1"], ["x1", "y2"], ["x2", "y1"], ["x2", "y2"]],
            "bipartition": [["x1", "x2"], ["y1", "y2"]],
        },
    )


@pytest.fixture()
def ten_vertex_file(tmp_path):
    return write_graph(tmp_path, "ten_vertex.json", ten_vertex_graph().to_json())


@pytest.fixture()
def tree_file(tmp_path):
    return write_graph(
        tmp_path,
        "tree.json",
        {"vertices": ["x1", "y1", "x2", "y2"], "edges": [["x1", "y1"], ["y1", "x2"], ["x2", "y2"]]},
    )


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_c4(capsys, c4_file):
    code, rep = run_json(capsys, ["analyze", c4_file])
    assert code == 0
    assert rep["verdict"] == "admits (ezd witness)"
    assert rep["ezd"]["found"] and rep["ezd"]["pair"]["certified"]
    assert rep["kernel_system"]["dimension"] == 4
    assert rep["wlp"]["has_wlp"]


def test_analyze_tree(capsys, tree_file):
    code, rep = run_json(capsys, ["analyze", tree_file])
    assert code == 0
    assert rep["verdict"] == "no-non-free-TR"
    assert rep["ring_conditions"]["m2_zero"]


def test_analyze_ten_vertex(capsys, ten_vertex_file):
    code, rep = run_json(capsys, ["analyze", ten_vertex_file])
    assert code == 0
    assert rep["verdict"] == "admits (factory witness)"
    assert rep["no_ezd_certificate"]["disconnecting_pair"] == ["x5", "y5"]
    assert not rep["ezd"]["found"]
    assert not rep["wlp"]["has_wlp"]
    assert rep["kernel_system"]["dimension"] > 4
    assert rep["ideal_pair"]["intersection_dims"] == [0, 1]
    assert rep["factory"]["certified"]


def test_analyze_direct_sum_graph(capsys, tmp_path):
    path = write_graph(
        tmp_path,
        "ds.json",
        {
            "vertices": ["x1", "x2", "x3", "y1", "y2", "y3"],
            "edges": [
                ["x1", "y1"], ["x2", "y2"], ["x3", "y1"], ["x3", "y2"],
                ["x3", "y3"], ["y3", "x1"], ["y3", "x2"],
            ],
        },
    )
    code, rep = run_json(capsys, [ "analyze", path])
    assert code == 0
    assert rep["verdict"] == "no-non-free-TR"
    assert rep["ideal_pair"]["verdict"] == "no-non-free-TR"


def test_analyze_inconclusive_exit_code(capsys, tmp_path):
    # triangle-free, leaf-free, non-bipartite with e = 2n-4: no bipartite
    # shortcut applies and the random ezd search has nothing to certify
    g = {
        "vertices": ["1", "2", "3", "4", "5", "6", "7"],
        "edges": [
            ["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "6"], ["6", "7"], ["7", "1"],
            ["1", "4"], ["2", "5"], ["3", "6"],
        ],
    }
    path = write_graph(tmp_path, "c7.json", g)
    code, rep = run_json(capsys, ["analyze", path])
    assert rep["verdict"] in ("inconclusive", "admits (ezd witness)", "no-non-free-TR")
    assert (code == 2) == (rep["verdict"] == "inconclusive")


def test_analyze_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 1
    disconnected = write_graph(
        tmp_path, "disc.json", {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]}
    )
    assert main(["analyze", disconnected]) == 1
    capsys.readouterr()
    unhashable = write_graph(tmp_path, "labels.json", {"vertices": [["a"], "b"], "edges": []})
    assert main(["analyze", unhashable]) == 1
    assert capsys.readouterr().err.startswith("error: malformed graph object")


def test_build_ezd_and_verify_round_trip(capsys, c4_file, tmp_path):
    out = str(tmp_path / "w.json")
    code, rep = run_json(capsys, ["build", c4_file, "--mode", "ezd", "--out", out])
    assert code == 0 and rep["status"] == "certified"
    code, vrep = run_json(capsys, ["verify", out])
    assert code == 0 and vrep["certified"]
    # round trip: load -> save -> load is idempotent
    first = json.loads(Path(out).read_text())
    from totref import FreeComplexWindow

    again = FreeComplexWindow.from_json(first).to_json()
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_build_ezd_tree_inconclusive(capsys, tree_file, tmp_path):
    code = main(["build", tree_file, "--mode", "ezd", "--out", str(tmp_path / "x.json"), "--json"])
    assert code == 2


def test_build_ten_vertex_canonical(capsys, tmp_path):
    out = str(tmp_path / "tvw.json")
    code, rep = run_json(
        capsys,
        ["build", "--section4", "--mode", "factory", "--canonical",
         "--forward", "3", "--backward", "3", "--out", out],
    )
    assert code == 0 and rep["status"] == "certified"
    obj = json.loads(Path(out).read_text())
    assert obj["betti"] == [2] * 8
    assert obj["periodic"] == {"period": 2, "verified": True}
    code, vrep = run_json(capsys, ["verify", out])
    assert code == 0 and vrep["certified"] and vrep["periodic_verified"]


def test_factory_subcommand_seeded_determinism(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["factory", "--seed", "9", "--forward", "1", "--backward", "1", "--out", a, "--json"]) == 0
    capsys.readouterr()
    assert main(["factory", "--seed", "9", "--forward", "1", "--backward", "1", "--out", b, "--json"]) == 0
    capsys.readouterr()
    assert Path(a).read_text() == Path(b).read_text()
    c = str(tmp_path / "c.json")
    assert main(["factory", "--seed", "10", "--forward", "1", "--backward", "1", "--out", c, "--json"]) == 0
    capsys.readouterr()
    assert Path(a).read_text() != Path(c).read_text()


def test_lift_cli_pipeline(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    lifted = str(tmp_path / "lifted.json")
    assert main(["build", c4_file, "--mode", "ezd", "--forward", "5", "--backward", "5",
                 "--out", src, "--json"]) == 0
    capsys.readouterr()
    code, rep = run_json(capsys, ["lift", src, "--out", lifted])
    assert code == 0 and rep["status"] == "certified"
    assert rep["final_betti"] == [4] * len(rep["final_betti"])
    code, vrep = run_json(capsys, ["verify", lifted])
    assert code == 0 and vrep["certified"]


def test_lift_one_step(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    out = str(tmp_path / "lift1.json")
    main(["build", c4_file, "--mode", "ezd", "--forward", "4", "--backward", "4", "--out", src])
    capsys.readouterr()
    code, rep = run_json(capsys, ["lift", src, "--steps", "1", "--out", out])
    assert code == 0
    assert rep["final_betti"] == [2] * len(rep["final_betti"])


def test_lift_requires_descriptor(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()

    def truncate_basis(alg):
        alg["basis"] = alg["basis"][:2]

    breakages = [
        lambda alg: alg.pop("descriptor"),
        lambda alg: alg["descriptor"].pop("graph"),
        lambda alg: alg["descriptor"].pop("mode"),
        lambda alg: alg.pop("field"),
        truncate_basis,
    ]
    for k, corrupt in enumerate(breakages):
        obj = json.loads(Path(src).read_text())
        corrupt(obj["algebra"])
        stripped = tmp_path / f"stripped{k}.json"
        stripped.write_text(json.dumps(obj))
        out = tmp_path / "no.json"
        assert main(["lift", str(stripped), "--out", str(out)]) == 1, k
        assert capsys.readouterr().err.startswith("error:"), k
        assert not out.exists()


def test_verify_corrupted_entry_fails(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()
    obj = json.loads(Path(src).read_text())
    # push the entry off its line (a pure rescaling would stay certified)
    obj["differentials"][1][0][0][1] = (obj["differentials"][1][0][0][1] + 1) % 1073741789
    bad = str(tmp_path / "bad.json")
    Path(bad).write_text(json.dumps(obj))
    code, rep = run_json(capsys, ["verify", bad])
    assert code == 0
    assert not rep["certified"]


def test_verify_unit_entry_not_minimal(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()
    obj = json.loads(Path(src).read_text())
    obj["constants"] = [
        [[1 if (m == 0 and r == 0 and c == 0) else 0 for c in range(len(mat[0]))]
         for r, _ in enumerate(mat)]
        for m, mat in enumerate(obj["differentials"])
    ]
    nm = str(tmp_path / "nonminimal.json")
    Path(nm).write_text(json.dumps(obj))
    code, rep = run_json(capsys, ["verify", nm])
    assert code == 0
    assert rep["minimal"] is False and rep["certified"] is False


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text(json.dumps({"format": "nope"}))
    assert main(["verify", str(bad)]) == 1


@pytest.mark.parametrize(
    "field, key, value",
    [
        ([], "differentials", 1.5),
        ([], "differentials", True),
        (["--rational"], "differentials", "1/0"),
        (["--rational"], "differentials", 1.5),
        (["--rational"], "differentials", True),
        ([], "constants", 0.0),
        (["--rational"], "constants", "0/0"),
    ],
    ids=["gf_float", "gf_bool", "qq_zero_denominator", "qq_float", "qq_bool",
         "gf_constant_float", "qq_constant_zero_denominator"],
)
def test_verify_refuses_malformed_coordinates(capsys, c4_file, tmp_path, field, key, value):
    """A coordinate encode never writes (a float, a bool, a zero denominator)
    is refused, in the differentials and in the constants: it was read as
    int(1.5) == int(True) == 1, or ended in a ZeroDivisionError traceback."""
    src = str(tmp_path / "src.json")
    assert main(["build", c4_file, "--mode", "ezd", "--out", src] + field) == 0
    capsys.readouterr()
    obj = json.loads(Path(src).read_text())
    if key == "differentials":
        obj["differentials"][0][0][0][0] = value
    else:
        obj["constants"] = [[[0] * len(row) for row in mat] for mat in obj["differentials"]]
        obj["constants"][0][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: complex file differentials are malformed: "), err


def test_text_report_renders(capsys, c4_file):
    code = main(["analyze", c4_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: admits (ezd witness)" in out


def test_analyze_deterministic_given_seed(capsys, ten_vertex_file):
    code1 = main(["analyze", ten_vertex_file, "--json", "--seed", "4"])
    out1 = capsys.readouterr().out
    code2 = main(["analyze", ten_vertex_file, "--json", "--seed", "4"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_rational_mode_cli(capsys, c4_file):
    code, rep = run_json(capsys, ["analyze", c4_file, "--rational"])
    assert code == 0
    assert rep["verdict"] == "admits (ezd witness)"

def test_lift_rejects_field_mismatch(capsys, c4_file, tmp_path):
    src = str(tmp_path / "src.json")
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()
    assert main(["lift", src, "--prime", "97", "--out", str(tmp_path / "no.json")]) == 1


def test_analyze_ten_vertex_large_prime(capsys, ten_vertex_file):
    # (p-1)**2 >= 2**63: eliminations must leave the int64 path
    code, rep = run_json(capsys, ["analyze", ten_vertex_file, "--prime", "4294967311"])
    assert code == 0
    assert rep["verdict"] == "admits (factory witness)"
    assert rep["wlp"]["surjective_samples"] == 0


@pytest.mark.parametrize("steps", ["0", "-1", "5"])
def test_lift_rejects_steps_outside_chain(capsys, c4_file, tmp_path, steps):
    src = str(tmp_path / "src.json")
    out = tmp_path / "lifted.json"
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()
    assert main(["lift", src, "--steps", steps, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "field", ["betti", "differentials", "lo", "algebra.field", "algebra.cutoff", "algebra.basis"]
)
def test_verify_missing_field(capsys, c4_file, tmp_path, field):
    src = str(tmp_path / "src.json")
    main(["build", c4_file, "--mode", "ezd", "--out", src])
    capsys.readouterr()
    obj = json.loads(Path(src).read_text())
    *path, key = field.split(".")
    parent = obj[path[0]] if path else obj
    del parent[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    from totref import AlgebraError, ComplexError, FreeComplexWindow

    with pytest.raises(AlgebraError if path else ComplexError):
        FreeComplexWindow.from_json(obj)


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"

# SHA-256 of `analyze --json` reports, which name their field under
# "reduction".  With that entry removed (`_without_field`) each report is the
# one recorded before the duplicated matrix products, traversals and row
# reductions were merged (ANALYZE_JSON_WITHOUT_FIELD_SHA256); refactors must
# keep every byte.
ANALYZE_JSON_SHA256 = {
    "four_cycle.json": "4cd2fc9e099701d3eb9d6e1767e6d59787e39b4596870200275ef2c90730ce81",
    "path4.json": "a6f2e15bf0d5b07a38d1f0ae26d71b3cdde8c7c447a6ac084d7fd9a27fbf9d28",
    "ten_vertex.json": "aaa1167345b49e2b79131786a2ee3371af66e50117dbccfe2feb14a33be72aaa",
    "two_blocks_hub.json": "2855e788665c31f8ef838df87bcde301ae9cccda0ec81ee7cdff86829ce20fd4",
}
ANALYZE_JSON_WITHOUT_FIELD_SHA256 = {
    "four_cycle.json": "fd86ce8e8d8c8bc0148717885e318311b6a7566fa616a09f6d8957fb8a91a46a",
    "path4.json": "707280178c0bba12af5c4ecd8954b97e881272af0e8e5aef8f1aa0d484b27a10",
    "ten_vertex.json": "0b2a4d7dd9ea7bcc0c76c43d4f423a58e72ec6ced18145077dd991843d268baa",
    "two_blocks_hub.json": "c78a69f1883d9e366f8d54336c20140025fff95e37d820409f1c700fc7f0c7e8",
}
# (complex JSON on stdout, report on stderr) of `factory --canonical --json`.
# The complex JSON names its ring by descriptor; with the multiplication
# tables put back (`_with_tables`) it is the file earlier versions wrote.
FACTORY_CANONICAL_SHA256 = (
    "f8bb25a36810691fda12de7ae606f71da2130df88a0adb341ce0cf3445c7e2c2",
    "561e924a07c050d8ef0250c3c17bbdeb8a7e2f0b1657bf6db7b2c15f452b3232",
)
FACTORY_CANONICAL_WITH_TABLES_SHA256 = (
    "2cb2c655eb7f724dd651e50e9fa3f1b7d6a5190cb7c8efe141b26e2c8ae42653"
)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _without_field(text):
    """An `analyze --json` report as printed before it named its field."""
    obj = json.loads(text)
    del obj["reduction"]["field"]
    return json.dumps(obj, indent=2) + "\n"


def _with_tables(text):
    """A complex file as earlier versions wrote it: its algebra entry also
    carries the multiplication tables of the ring, laid out from R.np_table."""
    obj = json.loads(text)
    R = GradedAlgebra.from_json(obj["algebra"])
    enc = R.field.encode
    obj["algebra"]["mult"] = [
        {"d1": d1, "d2": d2,
         "table": [[[enc(x) for x in vec] for vec in row] for row in R.np_table(d1, d2).tolist()]}
        for d1 in range(1, R.cutoff + 1)
        for d2 in range(d1, R.cutoff + 1 - d1)
    ]
    return json.dumps(obj, indent=1) + "\n"


def test_output_bytes_unchanged(capsys):
    assert sorted(p.name for p in GRAPHS.glob("*.json")) == sorted(ANALYZE_JSON_SHA256)
    for name, digest in ANALYZE_JSON_SHA256.items():
        assert main(["analyze", str(GRAPHS / name), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["reduction"]["field"] == {"kind": "gf", "p": DEFAULT_PRIME}
        assert _sha256(out) == digest, name
        assert _sha256(_without_field(out)) == ANALYZE_JSON_WITHOUT_FIELD_SHA256[name], name
    assert main(["factory", "--canonical", "--json"]) == 0
    out = capsys.readouterr()
    assert (_sha256(out.out), _sha256(out.err)) == FACTORY_CANONICAL_SHA256
    assert "mult" not in json.loads(out.out)["algebra"]
    assert _sha256(_with_tables(out.out)) == FACTORY_CANONICAL_WITH_TABLES_SHA256


# `analyze --json` on every array representation of the field: exact
# fractions, object ints (p >= 2^31) and a small prime.  C5 runs in generic
# mode.  ANALYZE_FIELDS_WITHOUT_FIELD_SHA256 holds the digests recorded before
# every table became a gather of its projection, which each report still
# gives with its "field" entry removed: until the reports named their field,
# the prime did not show in them.
_PATH4 = ANALYZE_JSON_WITHOUT_FIELD_SHA256["path4.json"]
_HUB = ANALYZE_JSON_WITHOUT_FIELD_SHA256["two_blocks_hub.json"]
_C5_SHA256 = "88229b623923e2e278b8f24f5dcc3b597ca73634876086e02886643549805281"
ANALYZE_FIELDS_WITHOUT_FIELD_SHA256 = {
    "--rational": {
        "four_cycle.json": "502915d8cb1e282382f8574bc2dfcb4f9f875cbe88c2b5283791afc7769b8e27",
        "path4.json": _PATH4,
        "ten_vertex.json": "d256e5e2ceec9a69014f4259130d45d2df6118bbd85322c6aedbe546146617bd",
        "two_blocks_hub.json": _HUB,
        "c5": _C5_SHA256,
    },
    "--prime 4294967311": dict(ANALYZE_JSON_WITHOUT_FIELD_SHA256),
    "--prime 5": dict(ANALYZE_JSON_WITHOUT_FIELD_SHA256),
    "": {"c5": _C5_SHA256},
}
ANALYZE_FIELDS_SHA256 = {
    "--rational": {
        "four_cycle.json": "5e60df05bb55e1329a8249fe0b2e86ac5c33bafdc38a2e429db1c78b61062fa8",
        "path4.json": "3c181506ff776372e050884b30130fe7d5ad6ccdf1eee8ea0a1f92aacc1e0dff",
        "ten_vertex.json": "a7ae6fff014299d4c430511bbe8f3b1e615a029abe415fdbf728b86257956193",
        "two_blocks_hub.json": "02cc713057126a1eef0076b5e2c229ec6f454c2e2c2033d876bbfbd3cee97dde",
        "c5": "fd28e2ea54b290c4950bb66333cd2bededdac1b43da172df2a4824a520eb0641",
    },
    "--prime 4294967311": {
        "four_cycle.json": "cad6b0d4c9ff4759d7be6576f7764370e0764b59f674ced4f6a764282b5765d6",
        "path4.json": "d981740c57218908ec41d938909317d0ceb0a299e43c60d15d02efadea7de61e",
        "ten_vertex.json": "fc486832726d0f1825b7881ae911da8ea6f3bff85b0f804b769f733aca06ec64",
        "two_blocks_hub.json": "c2c34db567d0a621d393ef3fa4b2e94fa7bda30962cfb8c98bdafe110b4ae451",
    },
    "--prime 5": {
        "four_cycle.json": "b5e6198cc4dc65abef21fa332ef1722dbbc3663138c673f48fb202f28f4edc46",
        "path4.json": "549cad90d8a9de58052f1edd5190640285168b87dc67977c23299229a296cf88",
        "ten_vertex.json": "ba5f1b4e31ec5dc47a7ca9dad68adc0ad8e1e0180c5a2cea07a5c241d56b1201",
        "two_blocks_hub.json": "1b3593aba007941203ba197e0aef19714d37cc60d6221e059b793ed944ef6224",
    },
    "": {"c5": "0909e148dc38e0b47e7d2977f852dfabedadca31164d8deaa09739e5072d71aa"},
}
_FIELDS = {
    "--rational": {"kind": "qq"},
    "--prime 4294967311": {"kind": "gf", "p": 4294967311},
    "--prime 5": {"kind": "gf", "p": 5},
    "": {"kind": "gf", "p": DEFAULT_PRIME},
}


@pytest.mark.parametrize("options", sorted(ANALYZE_FIELDS_SHA256), ids=lambda o: o or "default")
def test_analyze_bytes_on_every_field(capsys, tmp_path, options):
    paths = {name: str(GRAPHS / name) for name in ANALYZE_JSON_SHA256}
    paths["c5"] = write_graph(tmp_path, "c5.json", C5)
    old = ANALYZE_FIELDS_WITHOUT_FIELD_SHA256[options]
    for name, digest in ANALYZE_FIELDS_SHA256[options].items():
        main(["analyze", paths[name], "--json"] + options.split())
        out = capsys.readouterr().out
        assert json.loads(out)["reduction"]["field"] == _FIELDS[options], (options, name)
        assert _sha256(out) == digest, (options, name)
        assert _sha256(_without_field(out)) == old[name], (options, name)


# (report on stdout, complex file) of seeded random factory windows, recorded
# while each induced map still took one multiply and one solve per column.
# The report holds no coefficients, so the GF(p) reports agree.
_FACTORY_REPORT_SHA256 = "dd13f88814bc29d03580e104b3de2fa9938dbba91279c60658ea64c316509025"
FACTORY_RANDOM_SHA256 = {
    "default": (["--seed", "3", "--forward", "4", "--backward", "4"], _FACTORY_REPORT_SHA256,
                "8541fe18258042d55dd8d9983b920a7fdb789454ccc797225e30c8a93b50aa3d"),
    "p7": (["--seed", "3", "--forward", "4", "--backward", "4", "--prime", "7"],
           _FACTORY_REPORT_SHA256,
           "f78841367b73d8b51ee81d83347491b8bd5ac3539a8a174220c4819a04f9de8f"),
    "p4294967311": (["--seed", "3", "--forward", "4", "--backward", "4", "--prime", "4294967311"],
                    _FACTORY_REPORT_SHA256,
                    "eca2bd480770360fcf9ea4c2b007a4f571a207df53da60d5787aabda80f84669"),
    "rational": (["--rational", "--seed", "3", "--forward", "2", "--backward", "2"],
                 "00bc7dca34238728522d6db05e7762eb53b2bcde5d938d1b7fc294e17007a70d",
                 "33a96a06bac49dc2b94f77df0512adce7de294a48fc0578e9d26fe7f5dcf2638"),
    # the shape of the benchmark's rational windows: numerators and denominators of
    # about 200 digits
    "rational_4x4": (["--rational", "--seed", "3", "--forward", "4", "--backward", "4"],
                     "42805bf10391404b5b9f904e1afe2c704df6020a12d18594a71213cdd295ce3c",
                     "95fb3f8b2f9390d4334c05f6c9f1c9cfc009fea89336c00fd6f8420000d400f2"),
}


@pytest.mark.parametrize("name", sorted(FACTORY_RANDOM_SHA256))
def test_random_factory_bytes_unchanged(capsys, tmp_path, name):
    argv, report, complex_file = FACTORY_RANDOM_SHA256[name]
    out = tmp_path / "w.json"
    assert main(["factory"] + argv + ["--out", str(out), "--json"]) == 0
    captured = capsys.readouterr()
    assert (_sha256(captured.out), captured.err) == (report, "")
    assert _sha256(out.read_text()) == complex_file

# `verify --json` on the `build --mode ezd` window of graphs/four_cycle.json,
# as printed before `--degree-bound` reached verify
VERIFY_FOUR_CYCLE_SHA256 = "74f6b1c2afecccff8ce37132bb43d70bb581711e4f10c20d1db29337cc1ea218"


def test_verify_degree_bound(capsys, tmp_path):
    w = str(tmp_path / "w.json")
    assert main(["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd", "--out", w]) == 0
    capsys.readouterr()
    assert main(["verify", w, "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_FOUR_CYCLE_SHA256
    code, rep = run_json(capsys, ["verify", w, "--degree-bound", "2"])
    assert code == 0
    for key in ("exactness", "dual_exactness"):
        assert not rep[key]["complete"]
        assert rep[key]["certified_degree_bound"] <= 2


def test_analyze_passes_forward_backward(capsys, monkeypatch, ten_vertex_file):
    import totref.cli as cli

    calls = []
    real = cli.build_window

    def spy(special, start, forward, backward):
        calls.append((forward, backward))
        return real(special, start, forward, backward)

    monkeypatch.setattr(cli, "build_window", spy)
    assert run_json(capsys, ["analyze", ten_vertex_file])[1]["factory"]["certified"]
    assert run_json(capsys, ["analyze", ten_vertex_file, "--forward", "1", "--backward", "3"])[0] == 0
    assert calls == [(2, 2), (1, 3)]


def test_subcommand_defaults_stay_separate():
    # analyze's and lift's own defaults must not leak into the other subcommands
    from totref.cli import _configure, build_parser

    parser = build_parser()
    ns = {c: parser.parse_args([c, "x.json"]) for c in ("analyze", "build", "lift", "verify")}
    for args in ns.values():
        _configure(args)
    assert (ns["analyze"].forward, ns["analyze"].backward) == (2, 2)
    assert (ns["build"].forward, ns["build"].backward) == (4, 4)
    assert ns["lift"].degree_bound == 5
    assert ns["verify"].degree_bound is None and ns["build"].degree_bound is None


_FOUR_CYCLE = str(GRAPHS / "four_cycle.json")
_BY_ANALYZE_BUILD_FACTORY = "analyze, build and factory"


@pytest.mark.parametrize(
    "argv, option, commands",
    [
        (["analyze", _FOUR_CYCLE], ["--degree-bound", "3"], "lift and verify"),
        (["build", _FOUR_CYCLE, "--mode", "ezd"], ["--degree-bound", "3"], "lift and verify"),
        (["factory", "--forward", "1", "--backward", "1"], ["--degree-bound", "3"],
         "lift and verify"),
        (["lift"], ["--seed", "4"], _BY_ANALYZE_BUILD_FACTORY),
        (["lift"], ["--forward", "9"], _BY_ANALYZE_BUILD_FACTORY),
        (["verify"], ["--seed", "4", "--forward", "9"], _BY_ANALYZE_BUILD_FACTORY),
        (["verify"], ["--backward", "4"], _BY_ANALYZE_BUILD_FACTORY),
        (["lift"], ["--backward", "1"], _BY_ANALYZE_BUILD_FACTORY),
        (["verify"], ["--forward", "1"], _BY_ANALYZE_BUILD_FACTORY),
        # None: the subcommand reads the option
        (["analyze", _FOUR_CYCLE], ["--seed", "4"], None),
        (["analyze", _FOUR_CYCLE], ["--forward", "1"], None),
        (["analyze", _FOUR_CYCLE], ["--backward", "1"], None),
        (["build", _FOUR_CYCLE, "--mode", "ezd"], ["--seed", "4"], None),
        (["build", _FOUR_CYCLE, "--mode", "ezd"], ["--forward", "1"], None),
        (["build", _FOUR_CYCLE, "--mode", "ezd"], ["--backward", "1"], None),
        (["factory", "--forward", "1", "--backward", "1"], ["--seed", "4"], None),
        (["factory", "--backward", "1"], ["--forward", "1"], None),
        (["factory", "--forward", "1"], ["--backward", "1"], None),
        (["lift"], ["--degree-bound", "3"], None),
        (["verify"], ["--degree-bound", "3"], None),
    ],
    ids=["analyze", "build", "factory", "lift_seed", "lift_forward", "verify_seed_forward",
         "verify_backward", "lift_backward", "verify_forward",
         "analyze_reads_seed", "analyze_reads_forward", "analyze_reads_backward",
         "build_reads_seed", "build_reads_forward", "build_reads_backward",
         "factory_reads_seed", "factory_reads_forward", "factory_reads_backward",
         "lift_reads_degree_bound", "verify_reads_degree_bound"],
)
def test_degree_bound_refused_outside_lift_and_verify(capsys, tmp_path, argv, option, commands):
    """Every (subcommand, shared option) pair: a subcommand accepts the shared
    options it reads and refuses every other one, even at its default value:
    lift and verify once accepted and ignored --seed, --forward and --backward."""
    if argv[0] in ("lift", "verify"):
        argv = argv + [str(_four_cycle_window(capsys, tmp_path))]
    out = tmp_path / "w.json"
    extra = ["--out", str(out)] if argv[0] not in ("analyze", "verify") else []
    code = main(argv + extra + option + ["--json"])
    captured = capsys.readouterr()
    if commands is None:
        assert code == 0 and captured.err == "" and json.loads(captured.out)
        assert out.exists() == bool(extra)
        return
    assert code == 1
    assert captured.err == f"error: {option[0]} applies to {commands} only\n"
    assert captured.out == "" and not out.exists()


# the default each subcommand's --help gives for a window option it reads,
# and None where it refuses the option
_HELP_DEFAULTS = {
    "analyze": {"--forward": "analyze 2", "--backward": "analyze 2", "--degree-bound": None},
    "build": {"--forward": "build 4", "--backward": "build 4", "--degree-bound": None},
    "factory": {"--forward": "factory 4", "--backward": "factory 4", "--degree-bound": None},
    "lift": {"--forward": None, "--backward": None, "--degree-bound": "lift 5"},
    "verify": {"--forward": None, "--backward": None, "--degree-bound": "verify none"},
}


@pytest.mark.parametrize("command", sorted(_HELP_DEFAULTS))
def test_help_states_each_subcommands_defaults(capsys, command):
    """The help once told analyze that --forward and --backward default to 4."""
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for option, own in _HELP_DEFAULTS[command].items():
        start = next(k for k, line in enumerate(lines) if line.lstrip().startswith(option + " "))
        end = next(k for k in range(start + 1, len(lines)) if lines[k].startswith("  -"))
        defaults = " ".join(" ".join(lines[start:end]).split()).split("(default: ")[1]
        if own is None:
            assert command not in defaults, (option, defaults)
        else:
            assert own in defaults, (option, defaults)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", _FOUR_CYCLE, "--section4"], "a graph file and --section4 exclude each other"),
        (["build", _FOUR_CYCLE, "--mode", "ezd", "--canonical"],
         "--canonical applies to factory windows only"),
        (["build", "--section4", "--canonical"], "--canonical applies to factory windows only"),
        (["lift", "SRC", "--degree-bound", "2"],
         "--degree-bound of lift must be at least 3, the cutoff of the bottom ring"),
    ],
    ids=["graph_and_section4", "canonical_ezd", "canonical_default_mode", "lift_bound_2"],
)
def test_dropped_inputs_refused(capsys, tmp_path, argv, message):
    """Each input here was once dropped: the command wrote the same bytes as
    without it (the ten-vertex graph for both, an ezd window, a cutoff-3 ring)."""
    if "SRC" in argv:
        argv = [str(_four_cycle_window(capsys, tmp_path)) if a == "SRC" else a for a in argv]
    out = tmp_path / "w.json"
    assert main(argv + ["--out", str(out), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


# SHA-256 of (stdout, --out file) of `build` and then `lift --steps 2
# --degree-bound 4` with --json, and of stdout of `verify --json` on the lifted
# file.  The ten-vertex GF(p) blocks exceed the list-elimination threshold; the
# four_cycle window over the rationals takes the list path throughout, and the
# one over GF(4294967311) the exact-int ``object`` arrays of a prime above
# 2**31 (its digests were recorded before linear-form matrices became arrays).  The
# files no longer carry multiplication tables: LIFT_VERIFY_WITH_TABLES_SHA256
# holds the digests recorded for them, which `_with_tables` of each file
# reproduces, and `verify` of the lifted file with its tables put back prints
# the same bytes.  The lifted windows live over the top ring of their chain and
# are certified through its Artinian reduction: the `lift` and `verify` reports
# say `complete: true, certified_degree_bound: null` where they said `false`
# and a degree before.  "verify_truncated" is the `verify` digest recorded
# before that, which `verify --degree-bound 1000` (the check on the window's
# own ring, up to its cutoff) still prints.
LIFT_VERIFY_SHA256 = {
    "ten_vertex": {
        "build": ("b8b7ee45c1227a2e6ab8a3d486cc552441e4669f8bb3b2bd3b8c9e4889fba182",
                  "dfb826de130626c8d561adc4bb958a6127aef26660250f0878dfb20f04daf7b0"),
        "lift": ("cded885e368444bf58096755118c899bdaaf6acdabf5f8a08430bbff0a554046",
                 "fa3b55a7584933f403328ca925811082b5a70eeef62776f3ea3c0920b36338eb"),
        "verify": "8b939b91efd0b2f0094fe4c4335ef5837cf584da7001a6823e6be4406fc8fb70",
        "verify_truncated": "aedc64689ff33bf9e2c8e74f3ff7ef88063b64765abd5d4126b2d6f00d8b0bf5",
    },
    "four_cycle_rational": {
        "build": ("722601816ff6fe96084eb6ca9b98a4bbbda89f6d7429a7dbfd4d181185bf0305",
                  "a32c700e35bab7b6270022945b811624861dc01821f781af1c1309dfebddeffc"),
        "lift": ("33153c44b0a535c8f7b46d277741b315af34c15bf7e2ab8c40048c8f5687c8e7",
                 "6417afff2b9246560d1301f93e31f3ca3c31406f025cda4db1274dcf16098766"),
        "verify": "8b939b91efd0b2f0094fe4c4335ef5837cf584da7001a6823e6be4406fc8fb70",
        "verify_truncated": "6a7dce0f830e4b867346d286a9f7586175e02c565c179dad6e49c2f17b60cfd8",
    },
    "four_cycle_4294967311": {
        "build": ("097d3762208af6f13cce16899e4e9b86add83e8f8b643700784aa6eee4c0123f",
                  "9478031127dfd1a0b2b10a8de616b88a4eded065e9b77d920cbaab685558b59c"),
        "lift": ("e045fa51005c3e2d2d989b1cf375864e5edd66910dff32cab40ec1fc5206672b",
                 "abe929b5643d1b5e4c9e0e81165549d0895dc0c9cd639b7d73cb58ce7bd705a4"),
        "verify": "8b939b91efd0b2f0094fe4c4335ef5837cf584da7001a6823e6be4406fc8fb70",
        "verify_truncated": "6a7dce0f830e4b867346d286a9f7586175e02c565c179dad6e49c2f17b60cfd8",
    },
}
LIFT_VERIFY_WITH_TABLES_SHA256 = {
    "ten_vertex": {
        "build": "7b0625ca0ddd0ab95d5b47a0916f890430e36d08980dd6b0aa19235291640fff",
        "lift": "88949c8e09f9167df35bcdda0377ba468b82d19d49185ab103a85d8f39896543",
    },
    "four_cycle_rational": {
        "build": "81af06be86e4ceec5e5a2438d9d1ed42c0e3f9450aed225b14114dc57467ff64",
        "lift": "b075ffdb46c2154e4d06275b5f54d01fbe5e7d6114d94fb5748b1edad5cb997d",
    },
    "four_cycle_4294967311": {
        "build": "25299b451635344e9c60d772ed9c11d4acdab91f1228a893c65f3458483041e0",
        "lift": "516191645a0d58d3c95f15d306ca0be17805bc9688f5b45d035df6618502da39",
    },
}
LIFT_VERIFY_SOURCES = {
    "ten_vertex": (["build", "--section4", "--mode", "factory"], []),
    "four_cycle_rational": (
        ["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd", "--rational"], ["--rational"]
    ),
    # a prime above 2**31: exact Python ints in object arrays
    "four_cycle_4294967311": (
        ["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd", "--prime", "4294967311"],
        ["--prime", "4294967311"],
    ),
}


@pytest.mark.parametrize("name", sorted(LIFT_VERIFY_SHA256))
def test_lift_and_verify_bytes_unchanged(capsys, tmp_path, name):
    build_argv, field_argv = LIFT_VERIFY_SOURCES[name]
    digests, with_tables = LIFT_VERIFY_SHA256[name], LIFT_VERIFY_WITH_TABLES_SHA256[name]
    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = build_argv + ["--forward", "2", "--backward", "2", "--out", str(src), "--json"]
    assert main(argv) == 0
    assert (_sha256(capsys.readouterr().out), _sha256(src.read_text())) == digests["build"]
    assert _sha256(_with_tables(src.read_text())) == with_tables["build"]
    argv = ["lift", str(src), "--steps", "2", "--degree-bound", "4", "--out", str(lifted), "--json"]
    assert main(argv + field_argv) == 0
    assert (_sha256(capsys.readouterr().out), _sha256(lifted.read_text())) == digests["lift"]
    assert _sha256(_with_tables(lifted.read_text())) == with_tables["lift"]
    assert main(["verify", str(lifted), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == digests["verify"]
    assert main(["verify", str(lifted), "--json", "--degree-bound", "1000"]) == 0
    assert _sha256(capsys.readouterr().out) == digests["verify_truncated"]
    old = tmp_path / "with_tables.json"
    old.write_text(_with_tables(lifted.read_text()))
    assert main(["verify", str(old), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == digests["verify"]


# SHA-256 of the benchmark's own lift-chain commands (perfbench/workloads.py,
# at the default seed), recorded before every homological index was lifted
# at once: (stdout, --out file) of `build --json` on graphs/*.json with the
# default window and of each `lift --json` of the built file, and stdout of
# `verify --json` on each lifted file.
_VERIFY_CERTIFIED_SHA256 = "8b939b91efd0b2f0094fe4c4335ef5837cf584da7001a6823e6be4406fc8fb70"
LIFT_CHAIN_SHA256 = {
    "ten_vertex": (
        "factory",
        ("dd13f88814bc29d03580e104b3de2fa9938dbba91279c60658ea64c316509025",
         "defeafc908c8270b3b09b8309dadcaabdc195e8ca6c4a2fdf4eda8cc230a2b86"),
        {
            "--steps 2 --degree-bound 5": (
                "dc5286a7f37af4af39bf9c86293932ff9c134b54e85bc8a973bc362c8cdf19e3",
                "e7ba0e87d51ba017fbf2ff7a4213f7ab5696cad9fb574f6ebee93c4acdda90fe"),
            "--steps 1 --degree-bound 5": (
                "a7b1da1d9aa9857ecc6b62a75dbbd0e34be018df5bef41ed0aac63a270133f99",
                "499f3f2208271ccb0459004ef73e0d9054697ba5a9c4e5230dc5bc542a9f2770"),
        },
    ),
    "four_cycle": (
        "ezd",
        ("097d3762208af6f13cce16899e4e9b86add83e8f8b643700784aa6eee4c0123f",
         "4e80acc6596cf1e08438e568e467c20aa9040ad86fbad9cad7e3be89561d8079"),
        {
            "--degree-bound 7": (
                "8fd0d2d9e31ce82d126be7ec78eadeda73af29c9ca73bb451ed610385cec39e6",
                "92c18127258aea414e18c2fb6fae2cd73259fe88bc6170543e72986a0291cdd4"),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(LIFT_CHAIN_SHA256))
def test_lift_chain_bytes_unchanged(capsys, tmp_path, name):
    mode, built, lifts = LIFT_CHAIN_SHA256[name]
    src = tmp_path / "src.json"
    argv = ["build", str(GRAPHS / f"{name}.json"), "--mode", mode, "--json", "--out", str(src)]
    assert main(argv) == 0
    assert (_sha256(capsys.readouterr().out), _sha256(src.read_text())) == built
    for options, digests in lifts.items():
        lifted = tmp_path / "lifted.json"
        argv = ["lift", str(src), *options.split(), "--json", "--out", str(lifted)]
        assert main(argv) == 0
        assert (_sha256(capsys.readouterr().out), _sha256(lifted.read_text())) == digests, options
        assert main(["verify", str(lifted), "--json"]) == 0
        assert _sha256(capsys.readouterr().out) == _VERIFY_CERTIFIED_SHA256, options


# SHA-256 of (stdout, --out file) of `lift --steps 2 --json` at the highest
# cutoff under the table limit, of the lift-chain windows above, recorded
# while the top ring still multiplied through its dense tables
LIFT_AT_TABLE_LIMIT_SHA256 = {
    "four_cycle": ("116", ("8fd0d2d9e31ce82d126be7ec78eadeda73af29c9ca73bb451ed610385cec39e6",
                           "c0420cfc4266d2265318d4218119eb4d42be0cce7cd52cbb0a489119a0e2d842")),
    "ten_vertex": ("34", ("dc5286a7f37af4af39bf9c86293932ff9c134b54e85bc8a973bc362c8cdf19e3",
                          "0e9bc170fc067019a7a280acf80c2ce9d0e7a6e3aa7b97b2ca159d3e95664175")),
}


@pytest.mark.parametrize("name", sorted(LIFT_AT_TABLE_LIMIT_SHA256))
def test_lift_at_the_table_limit_bytes_unchanged(capsys, tmp_path, name):
    (mode, built, _), (bound, digests) = LIFT_CHAIN_SHA256[name], LIFT_AT_TABLE_LIMIT_SHA256[name]
    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["build", str(GRAPHS / f"{name}.json"), "--mode", mode, "--json", "--out", str(src)]
    assert main(argv) == 0
    assert (_sha256(capsys.readouterr().out), _sha256(src.read_text())) == built
    argv = ["lift", str(src), "--steps", "2", "--degree-bound", bound, "--json", "--out", str(lifted)]
    assert main(argv) == 0
    assert (_sha256(capsys.readouterr().out), _sha256(lifted.read_text())) == digests
    assert main(["verify", str(lifted), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == _VERIFY_CERTIFIED_SHA256


@pytest.mark.parametrize("name", sorted(LIFT_CHAIN_SHA256))
def test_lift_and_verify_build_no_top_ring_table_but_one(monkeypatch, tmp_path, name):
    """A ring of monomials multiplies by a scatter: a two-step lift and the
    checks of verify, through the reduction and on the window's own ring,
    build no table of the top ring but R_1 x R_1 -> R_2, which the product
    of two lifted windows (complexes.matrix_product) reads."""
    built = set()
    real = GradedAlgebra.np_table

    def spy(self, d1, d2):
        if self.proj is None:
            built.add((d1, d2))
        return real(self, d1, d2)

    monkeypatch.setattr(GradedAlgebra, "np_table", spy)
    mode = LIFT_CHAIN_SHA256[name][0]
    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["build", str(GRAPHS / f"{name}.json"), "--mode", mode, "--out", str(src)]
    assert run_captured(argv)[0] == 0 and not built
    argv = ["lift", str(src), "--steps", "2", "--degree-bound", "6", "--out", str(lifted)]
    assert run_captured(argv)[0] == 0
    for bound in ([], ["--degree-bound", "5"]):
        assert run_captured(["verify", str(lifted), *bound])[0] == 0
    assert built <= {(1, 1)}


def test_verify_ranks_the_diagonal_pieces_of_a_lift(monkeypatch, tmp_path):
    """verify of the two-step ten-vertex lift ranks the 14 x 16 diagonal
    pieces of its 56 x 64 blocks, all confirmed: no stacked matrix has more
    than 16 rows or columns, and no block is eliminated whole."""
    import totref.complexes as complexes
    import totref.linalg as linalg

    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["build", str(GRAPHS / "ten_vertex.json"), "--mode", "factory", "--out", str(src)]
    assert run_captured(argv)[0] == 0
    assert run_captured(["lift", str(src), "--steps", "2", "--out", str(lifted)])[0] == 0
    shapes, whole = [], []
    stacked = linalg._stacked_ranks
    monkeypatch.setattr(linalg, "_stacked_ranks", lambda p, S: shapes.append(S.shape) or stacked(p, S))
    monkeypatch.setattr(complexes, "array_rank", lambda field, A: whole.append(A.shape))
    code, out, _ = run_captured(["verify", str(lifted), "--json"])
    assert code == 0 and json.loads(out)["certified"] is True
    assert shapes and max(max(shape[1:]) for shape in shapes) <= 16
    assert not whole


@pytest.mark.parametrize(
    "name, mode, steps, count",
    [("ten_vertex", "factory", 2, 3), ("four_cycle", "ezd", 1, 2)],
)
def test_lift_refuses_a_window_too_short_for_its_steps(tmp_path, name, mode, steps, count):
    """Each step drops one index and the last lifted window needs an interior
    index: a window of fewer than steps + 2 differentials is refused before
    anything is lifted or written."""
    src, out = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["build", str(GRAPHS / f"{name}.json"), "--mode", mode,
            "--forward", "1", "--backward", "1", "--out", str(src)]
    assert run_captured(argv)[0] == 0
    assert len(json.loads(src.read_text())["differentials"]) == count
    code, stdout, stderr = run_captured(["lift", str(src), "--steps", str(steps), "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert stderr == (
        f"error: lift --steps {steps} needs a window of at least {steps + 2} "
        f"differentials, and this one has {count}\n"
    )
    assert not out.exists()
    if steps == 2:  # one step fewer still certifies
        code, stdout, _ = run_captured(["lift", str(src), "--steps", "1", "--json", "--out", str(out)])
        assert code == 0 and json.loads(stdout)["status"] == "certified"


def _complex_windows():
    """Windows for the complex-file writer: GF(p), a prime above 2**31, the
    rationals with "n/d" coordinates, and the shapes it leaves to json.dumps
    (no differential, a differential without entries)."""
    from fractions import Fraction

    from totref import FreeComplexWindow, RationalField, ezd_complex, reduction_chain
    from totref.analysis import EzdPair
    from totref.fields import PrimeField
    from totref.graphs import load_graph

    g = load_graph(str(GRAPHS / "four_cycle.json"))
    windows = []
    for field in (PrimeField(), PrimeField(4294967311), RationalField()):
        R = reduction_chain(g, cutoff=3, field=field).bottom
        x, y = R.generators()
        w = ezd_complex(R, EzdPair(x + y, x - y, True), half_length=2)
        windows.append(w)
        if isinstance(field, RationalField):
            thirds = [D * Fraction(-2, 3) for D in w.diffs]
            windows.append(FreeComplexWindow(R, w.lo, w.hi, w.betti, thirds, w.base_twist))
    R = windows[0].algebra
    windows.append(FreeComplexWindow(R, 0, 0, [1], []))
    empty = [np.zeros((1, 0, R.dims[1]), dtype=np.int64), np.zeros((0, 1, R.dims[1]), dtype=np.int64)]
    windows.append(FreeComplexWindow(R, 0, 2, [1, 0, 1], empty))
    return windows


def test_complex_writer_matches_json_dumps(tmp_path):
    """The complex-file writer gives json.dumps(..., indent=1) byte for byte,
    on the windows above and on a rational ten-vertex window and its lift."""
    from totref import FreeComplexWindow
    from totref.cli import _complex_text

    windows = _complex_windows()
    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["build", str(GRAPHS / "ten_vertex.json"), "--mode", "factory",
            "--forward", "2", "--backward", "1", "--rational", "--out", str(src)]
    assert run_captured(argv)[0] == 0
    assert run_captured(["lift", str(src), "--steps", "1", "--out", str(lifted)])[0] == 0
    windows += [FreeComplexWindow.from_json(json.loads(p.read_text())) for p in (src, lifted)]
    assert any("/" in json.dumps(w.to_json()["differentials"]) for w in windows)
    for w in windows:
        assert _complex_text(w) == json.dumps(w.to_json(), indent=1)


@pytest.mark.parametrize(
    "argv",
    [
        ["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd"],
        ["factory"],
    ],
    ids=["build_ezd", "factory"],
)
def test_window_without_interior_index_not_certified(capsys, tmp_path, argv):
    # lo = hi (ezd) or a single differential (factory): no exactness to check
    out = tmp_path / "w.json"
    code, rep = run_json(capsys, argv + ["--forward", "0", "--backward", "0", "--out", str(out)])
    assert code == 2 and rep["status"] == "failed"
    cert = rep["certificate"] if argv[0] == "build" else rep["report"]["certificate"]
    assert cert["certified"] is False
    assert not cert["exactness"]["exact"] and not cert["dual_exactness"]["exact"]


@pytest.mark.parametrize(
    "argv",
    [
        ["factory", "--forward", "-3", "--backward", "-2"],
        ["factory", "--forward", "0", "--backward", "-1"],
        ["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd", "--forward", "-1"],
        ["analyze", str(GRAPHS / "ten_vertex.json"), "--forward", "-1", "--backward", "-1"],
    ],
    ids=["factory", "factory_backward", "build", "analyze"],
)
def test_negative_window_lengths_refused(capsys, tmp_path, argv):
    out = tmp_path / "w.json"
    extra = ["--out", str(out)] if argv[0] != "analyze" else []
    assert main(argv + extra + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --forward and --backward must be non-negative\n"
    assert captured.out == "" and not out.exists()


def _four_cycle_window(capsys, tmp_path, *extra):
    src = tmp_path / "src.json"
    argv = ["build", str(GRAPHS / "four_cycle.json"), "--mode", "ezd", "--out", str(src), *extra]
    assert main(argv) == 0
    capsys.readouterr()
    return src


def test_verify_bound_above_every_twist_not_certified(capsys, tmp_path):
    # every interior twist of the primal exceeds the bound: no degree of it
    # is checked, so the primal side is not exact and nothing is certified
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    obj["base_twist"] = 10
    src.write_text(json.dumps(obj))
    code, rep = run_json(capsys, ["verify", str(src), "--degree-bound", "2"])
    assert code == 0
    assert rep["certified"] is False
    assert rep["exactness"] == {
        "exact": False, "complete": False, "certified_degree_bound": 2, "failures": []
    }
    # the dual's interior twists are -17..-11 and R_3 = 0: the bound skipped
    # no nonzero graded piece, so its check covered every degree
    assert rep["dual_exactness"] == {
        "exact": True, "complete": True, "certified_degree_bound": None, "failures": []
    }


def test_verify_does_not_verify_a_vacuous_period(capsys, tmp_path):
    # the four_cycle ezd window (a = b, period 1) cut to indices -1..1 has two
    # differentials: a claimed period 2 compares no pair d_i, d_{i+2} and is
    # not verified, while period 1 compares d_0 with d_1; a period below 1
    # would compare d_i with itself or step backwards, and is refused
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    k = -1 - obj["lo"]  # position of the differential at index 0
    obj.update(
        lo=-1, hi=1, betti=[1, 1, 1], base_twist=obj["base_twist"] + k,
        differentials=obj["differentials"][k : k + 2],
    )
    for period, verified in ((2, False), (1, True), (0, False), (-1, False)):
        obj["periodic"] = {"period": period, "verified": True}
        src.write_text(json.dumps(obj))
        code, rep = run_json(capsys, ["verify", str(src)])
        assert code == 0 and rep["certified"]
        assert rep["periodic"] == {"period": period, "verified": verified}
        assert rep["periodic_verified"] is verified


@pytest.mark.parametrize("command", ["verify", "lift"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("periodic", [2]),
        ("periodic", {"verified": True}),
        ("periodic", {"period": "2"}),
        ("periodic", {"period": 2.0}),
        ("periodic", {"period": True}),
        ("periodic", {"period": 2, "verified": "yes"}),
        ("base_twist", "0"),
        ("base_twist", True),
        ("betti", True),
        ("betti", 1.0),
    ],
    ids=["periodic_list", "periodic_no_period", "period_str", "period_float", "period_bool",
         "verified_str", "base_twist_str", "base_twist_bool", "betti_bool", "betti_float"],
)
def test_malformed_window_fields_refused(capsys, tmp_path, command, key, value):
    # each once ended in a traceback or was read as another value (true as 1);
    # a betti value replaces the first Betti number
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    if key == "betti":
        obj["betti"][0] = value
    else:
        obj[key] = value
    src.write_text(json.dumps(obj))
    out = tmp_path / "lifted.json"
    extra = ["--out", str(out)] if command == "lift" else []
    assert main([command, str(src), "--json", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: complex file field {key!r} is "), captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": ["a", "b"], "edges": ["ab"]},
        {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "bipartition": "ab"},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "bipartition": [["a"]]},
        {"vertices": [1, 2], "edges": [[1, 2]]},
    ],
    ids=["edge_str", "edge_triple", "bipartition_str", "bipartition_one_side", "int_labels"],
)
def test_malformed_graph_refused(capsys, tmp_path, graph):
    """parse_graph accepts only what Graph.to_json writes, in a graph file and
    in the chain descriptor of a complex file alike: the edge "ab" was read
    as a-b, and one-sided bipartitions and integer labels ended in
    tracebacks."""
    path = write_graph(tmp_path, "bad.json", graph)
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    obj["algebra"]["descriptor"]["graph"] = graph
    src.write_text(json.dumps(obj))
    for argv in (["analyze", path], ["verify", str(src)]):
        assert main(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed graph object: "), (argv, captured.err)
        assert captured.out == ""


@pytest.mark.parametrize("corruption", ["coefficient", "zero_differential"])
def test_verify_refuses_a_corrupted_lifted_file(capsys, tmp_path, corruption):
    # the lifted window lives over the top ring and is checked through its
    # reduction (no bound) or on its own ring (with a bound); both refuse it
    src, lifted = _four_cycle_window(capsys, tmp_path), tmp_path / "lifted.json"
    assert main(["lift", str(src), "--degree-bound", "4", "--out", str(lifted)]) == 0
    capsys.readouterr()
    obj = json.loads(lifted.read_text())
    mat = obj["differentials"][2]
    if corruption == "coefficient":
        mat[0][0][0] = (mat[0][0][0] + 1) % DEFAULT_PRIME
    else:  # d_i = 0 still composes with its neighbours, and is not exact
        obj["differentials"][2] = [[[0] * len(e) for e in row] for row in mat]
    lifted.write_text(json.dumps(obj))
    for bound in ([], ["--degree-bound", "4"]):
        code, rep = run_json(capsys, ["verify", str(lifted), *bound])
        assert code == 0 and rep["certified"] is False, bound
        if corruption == "zero_differential":
            assert rep["composes"] and not rep["exactness"]["exact"], bound


def test_rational_ten_vertex_lift_is_certified(capsys, tmp_path):
    # the smallest ten-vertex factory window that lifts twice, over Q
    src, lifted = tmp_path / "src.json", tmp_path / "lifted.json"
    argv = ["factory", "--rational", "--forward", "2", "--backward", "1", "--out", str(src)]
    assert run_json(capsys, argv)[1]["status"] == "certified"
    code, rep = run_json(capsys, ["lift", str(src), "--degree-bound", "3", "--out", str(lifted)])
    assert code == 0 and rep["status"] == "certified" and len(rep["steps"]) == 2
    code, rep = run_json(capsys, ["verify", str(lifted)])
    assert code == 0 and rep["certified"] is True
    assert rep["exactness"]["complete"] and rep["dual_exactness"]["complete"]


def test_verify_ignores_tampered_tables(capsys, tmp_path):
    # the ring is rebuilt from the descriptor: tables a file carries change nothing
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(_with_tables(src.read_text()))
    for entry in obj["algebra"]["mult"]:
        if (entry["d1"], entry["d2"]) == (1, 1):
            entry["table"][0][0] = [1] * len(entry["table"][0][0])
            entry["table"][1][1] = [0] * len(entry["table"][1][1])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj, indent=1) + "\n")
    assert main(["verify", str(bad), "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_FOUR_CYCLE_SHA256


def _swap_degree_one_labels(alg):
    alg["basis"][1] = alg["basis"][1][::-1]


# values of the descriptor's cutoff other than the algebra's own, 3; each of
# them once verified to `certified: true`
_DESCRIPTOR_CUTOFFS = {
    "null": None, "true": True, "false": False, "0": 0, "-3": -3, "2": 2, "4": 4,
    "1e6": 10**6, "1e100": 10**100, "1.5": 1.5, "3.0": 3.0, "str_3": "3", "str_x": "x",
    "empty_list": [], "list_3": [3], "empty_object": {}, "missing": ...,
}


def _descriptor_cutoff(value):
    if value is ...:
        return lambda alg: alg["descriptor"].pop("cutoff")
    return lambda alg: alg["descriptor"].update(cutoff=value)


@pytest.mark.parametrize("command", ["lift", "verify"])
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda alg: alg.pop("descriptor"),
        lambda alg: alg["descriptor"].update(kind="polynomial_quotient"),
        lambda alg: alg["descriptor"].update(level=3),
        lambda alg: alg["descriptor"].update(level="2"),
        lambda alg: alg["descriptor"].update(level=1),
        lambda alg: alg["descriptor"].update(seed="0"),
        _swap_degree_one_labels,
        lambda alg: alg["basis"][2].append("x1*y1"),
        lambda alg: alg["descriptor"].update(seed=True),
        *map(_descriptor_cutoff, _DESCRIPTOR_CUTOFFS.values()),
        # dims that are not the lengths of the basis once verified to `certified: true`
        lambda alg: alg.update(dims=[9, 9, 9, 9]),
        lambda alg: alg.update(dims="x"),
        lambda alg: alg.update(dims=None),
    ],
    ids=["no_descriptor", "kind", "level_3", "level_str", "level_1", "seed_str",
         "basis_order", "basis_extra", "seed_bool",
         *(f"cutoff_{name}" for name in _DESCRIPTOR_CUTOFFS), "dims_9", "dims_str", "dims_null"],
)
def test_ring_not_named_by_descriptor_refused(capsys, tmp_path, command, corrupt):
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    corrupt(obj["algebra"])
    src.write_text(json.dumps(obj))
    out = tmp_path / "lifted.json"
    extra = ["--out", str(out)] if command == "lift" else []
    assert main([command, str(src), "--json", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "field_argv", [["--prime", "7"], ["--rational"]], ids=["prime", "rational"]
)
def test_lift_and_verify_refuse_a_field_the_file_does_not_use(capsys, tmp_path, field_argv):
    src = _four_cycle_window(capsys, tmp_path)
    for command in ("lift", "verify"):
        assert main([command, str(src), "--json", *field_argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: complex file is over GF(1073741789), not"), err
    assert main(["verify", str(src), "--json", "--prime", str(DEFAULT_PRIME)]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_FOUR_CYCLE_SHA256


def test_lift_takes_the_field_from_the_file(capsys, tmp_path):
    src = _four_cycle_window(capsys, tmp_path, "--rational")
    lifted = tmp_path / "lifted.json"
    code, rep = run_json(capsys, ["lift", str(src), "--degree-bound", "4", "--out", str(lifted)])
    assert code == 0 and rep["status"] == "certified"
    assert json.loads(lifted.read_text())["algebra"]["field"] == {"kind": "qq"}


def test_prime_and_rational_exclude_each_other(capsys):
    argv = ["analyze", str(GRAPHS / "four_cycle.json"), "--prime", "7", "--rational"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --prime and --rational exclude each other\n"


def test_verify_passes_retries_to_the_rebuild(capsys, monkeypatch, tmp_path):
    import totref.algebra as algebra

    src = _four_cycle_window(capsys, tmp_path)
    seen = []
    real = algebra.reduction_chain

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(algebra, "reduction_chain", spy)
    assert main(["verify", str(src), "--json", "--retries", "5"]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_FOUR_CYCLE_SHA256
    assert seen == [5]


# a child process that rebuilds no ring above the table limit stays far below
# this address space; a regression that builds the tables runs into it (a
# MemoryError, exit 1 without a clean refusal) or into the timeout
_CHILD_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from totref.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _bounded_cli(argv):
    """main(argv) in a child process under a 1 GiB address space and a
    timeout: (exit code, stderr)."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_LIMIT, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("bound", ["117", "100000"])
def test_lift_refuses_a_cutoff_above_the_table_limit(capsys, tmp_path, bound):
    # the four-cycle ring's tables up to cutoff D hold 64 (D - 1) D (D + 1) / 3
    # cells: 33,073,280 at D = 116, the highest cutoff under 2^25, and about
    # 2.1e16 at D = 100000, which ran out of memory before the refusal
    src, lifted = _four_cycle_window(capsys, tmp_path), tmp_path / "lifted.json"
    code, err = _bounded_cli(["lift", str(src), "--degree-bound", bound, "--out", str(lifted)])
    assert code == 1 and err.startswith(f"error: cutoff {bound} is too high for this ring"), err
    assert "the limit is 33554432 (2^25" in err and not lifted.exists()


def test_verify_refuses_a_file_cutoff_above_the_table_limit(capsys, tmp_path):
    # a file that records a cutoff above the limit (and the basis it needs),
    # in its algebra entry and in the descriptor, which must agree
    src = _four_cycle_window(capsys, tmp_path)
    obj = json.loads(src.read_text())
    cutoff = 5000
    obj["algebra"]["cutoff"] = obj["algebra"]["descriptor"]["cutoff"] = cutoff
    obj["algebra"]["basis"] += [[f"b{d}"] for d in range(len(obj["algebra"]["basis"]), cutoff + 1)]
    src.write_text(json.dumps(obj))
    code, err = _bounded_cli(["verify", str(src)])
    assert code == 1 and err.startswith(f"error: cutoff {cutoff} is too high for this ring"), err


C5 = {"vertices": list("abcde"), "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]]}
K4 = {"vertices": list("abcd"), "edges": [[u, v] for u, v in combinations("abcd", 2)]}


@pytest.mark.parametrize("seed", ["1", "6", "15"])
def test_generic_reduction_resamples_a_zero_first_form(capsys, tmp_path, seed):
    """Over GF(2) these seeds draw a zero first form for C5; the draw is
    resampled like a vanished second form instead of ending the search."""
    path = write_graph(tmp_path, "c5.json", C5)
    code, rep = run_json(capsys, ["analyze", path, "--prime", "2", "--seed", seed])
    assert code == 0 and capsys.readouterr().err == ""
    assert rep["reduction"]["hilbert_ok"] and rep["verdict"] == "no-non-free-TR"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "GRAPH", "--bogus"],
        ["analyze", "GRAPH", "--prime", "abc"],
        ["build", "GRAPH", "--mode", "bogus"],
        ["analyze"],
    ],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, c4_file, argv):
    assert main([c4_file if a == "GRAPH" else a for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: totref")


def test_main_builds_one_parser_per_process(capsys, monkeypatch, c4_file, tmp_path):
    """Calls of main share one parser and nothing of an earlier call sticks:
    two subcommands build it once, an option of one analyze is gone from the
    next, and help and usage errors still exit 0 and 1."""
    import totref.cli as cli

    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        rational = run_json(capsys, ["analyze", c4_file, "--rational"])[1]
        out = str(tmp_path / "w.json")
        assert main(["build", c4_file, "--mode", "ezd", "--out", out]) == 0
        capsys.readouterr()
        plain = run_json(capsys, ["analyze", c4_file])[1]
        assert rational["reduction"]["field"] != plain["reduction"]["field"]
        assert plain == run_json(capsys, ["analyze", c4_file])[1]
        assert main(["verify", "--help"]) == 0
        assert main(["verify", out, "--bogus"]) == 1
        assert main(["analyze"]) == 1
        assert built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("retries", ["0", "-3"])
def test_retries_below_one_refused(capsys, tmp_path, retries):
    path = write_graph(tmp_path, "k4.json", K4)
    assert main(["analyze", path, "--retries", retries]) == 1
    assert main(["factory", "--retries", retries]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --retries must be at least 1\n" * 2


@functools.lru_cache(maxsize=None)
def connected_atlas():
    """The connected graphs of the networkx atlas with 2 to 7 vertices."""
    return [
        g for g in nx.graph_atlas_g() if 2 <= g.number_of_nodes() <= 7 and nx.is_connected(g)
    ]


def run_captured(argv):
    """(exit code, stdout, stderr) of main(argv), captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_analyze_atlas_graphs(tmp_path_factory, prime, data):
    """analyze of a connected atlas graph, written with its vertices and
    edges in a drawn order, at a drawn seed.  At the default prime: a
    verdict or an inconclusive exit, the expected Hilbert function, and
    no-non-free-TR whenever e != 2n - 4 or there is a triangle or a leaf.
    Over GF(2) and GF(3) the reduction search may run out of retries, but
    only as one error line; there a drawn --retries of 1 to 8 keeps each
    failing search short."""
    g = data.draw(st.sampled_from(connected_atlas()))
    vertices = data.draw(st.permutations([f"v{v}" for v in g.nodes]))
    edges = data.draw(st.permutations([[f"v{u}", f"v{v}"] for u, v in g.edges]))
    seed = data.draw(st.integers(0, 2**16))
    path = tmp_path_factory.mktemp("atlas") / "g.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    argv = ["analyze", str(path), "--seed", str(seed), "--json"]
    if prime is not None:
        retries = data.draw(st.integers(1, 8))
        code, out, err = run_captured(argv + ["--prime", str(prime), "--retries", str(retries)])
        assert code in (0, 1, 2)
        assert err == "" or (
            err.startswith("error: no regular reduction found (") and err.count("\n") == 1
        )
        return
    code, out, err = run_captured(argv)
    assert code in (0, 2) and err == ""
    rep = json.loads(out)
    assert rep["reduction"]["hilbert_ok"]
    n, e = g.number_of_nodes(), g.number_of_edges()
    has_triangle = any(nx.triangles(g).values())
    has_leaf = min(d for _, d in g.degree) == 1
    if e != 2 * n - 4 or has_triangle or has_leaf:
        assert rep["verdict"] == "no-non-free-TR"


# JSON values of every kind, nested a little; json.dumps writes NaN and the
# infinities as JSON reads them back
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# the fields of each file, by their path from its root
GRAPH_FIELDS = [(), ("vertices",), ("vertices", 0), ("edges",), ("edges", 0), ("edges", 0, 1),
                ("bipartition",), ("bipartition", 0), ("bipartition", 1, 0)]
COMPLEX_FIELDS = [
    (), ("format",), ("lo",), ("hi",), ("base_twist",), ("betti",), ("betti", 0),
    ("differentials",), ("differentials", 0), ("differentials", 0, 0), ("differentials", 0, 0, 0),
    ("differentials", 0, 0, 0, 0), ("periodic",), ("periodic", "period"), ("periodic", "verified"),
    ("constants",), ("algebra",), ("algebra", "format"), ("algebra", "field"),
    ("algebra", "field", "kind"), ("algebra", "field", "p"), ("algebra", "cutoff"),
    ("algebra", "dims"), ("algebra", "basis"), ("algebra", "basis", 1), ("algebra", "basis", 1, 0),
    ("algebra", "descriptor"), ("algebra", "descriptor", "kind"),
    ("algebra", "descriptor", "graph"), ("algebra", "descriptor", "graph", "vertices"),
    ("algebra", "descriptor", "graph", "edges", 0), ("algebra", "descriptor", "mode"),
    ("algebra", "descriptor", "seed"), ("algebra", "descriptor", "cutoff"),
    ("algebra", "descriptor", "level"),
]


@functools.lru_cache(maxsize=None)
def _four_cycle_file_text():
    """The complex file `build --mode ezd` writes for graphs/four_cycle.json."""
    code, out, _ = run_captured(["build", _FOUR_CYCLE, "--mode", "ezd"])
    assert code == 0
    return out


def _replaced(obj, path, value):
    """obj with the field at path set to value (removed when value is
    Ellipsis); a path into a field that is not a container stops there."""
    if not path:
        return value
    head, *rest = path
    if isinstance(obj, dict) or (isinstance(obj, list) and isinstance(head, int) and head < len(obj)):
        if value is ... and not rest:
            obj.pop(head, None) if isinstance(obj, dict) else obj.pop(head)
        elif isinstance(obj, dict) and head not in obj:
            obj[head] = value
        else:
            obj[head] = _replaced(obj[head], tuple(rest), value)
    return obj


@pytest.mark.parametrize("command", ["analyze", "verify", "lift"])
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_malformed_files_end_in_a_verdict_or_one_error_line(tmp_path_factory, command, data):
    """main() on a graph file (analyze) or a complex file (verify, lift) with
    one field replaced by a drawn JSON value or removed: an exit code of 0,
    1 or 2, never an escaping exception, and exit 1 with exactly one error
    line on stderr and nothing written."""
    if command == "analyze":
        obj = json.loads((GRAPHS / "four_cycle.json").read_text())
        path = data.draw(st.sampled_from(GRAPH_FIELDS))
    else:
        obj = json.loads(_four_cycle_file_text())
        path = data.draw(st.sampled_from(COMPLEX_FIELDS))
    value = data.draw(JSON_VALUES | st.just(...) if path else JSON_VALUES)
    tmp = tmp_path_factory.mktemp("malformed")
    (tmp / "in.json").write_text(json.dumps(_replaced(obj, path, value)))
    out = tmp / "out.json"
    argv = [command, str(tmp / "in.json"), "--json"]
    code, stdout, err = run_captured(argv + (["--out", str(out)] if command == "lift" else []))
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["analyze", "verify", "lift"])
def test_deeply_nested_files_refused(capsys, tmp_path, command):
    # JSON nested deeper than the decoder's recursion limit ended in a
    # RecursionError traceback
    path, out = tmp_path / "deep.json", tmp_path / "out.json"
    path.write_text('{"format": "complex", "algebra": ' + "[" * 100000 + "]" * 100000 + "}")
    extra = ["--out", str(out)] if command == "lift" else []
    assert main([command, str(path), *extra]) == 1
    captured = capsys.readouterr()
    kind = "graph" if command == "analyze" else "complex"
    assert captured.err == f"error: {kind} file is nested too deeply to read\n"
    assert captured.out == "" and not out.exists()


# strong pseudoprimes to the first 12 and to the first 13 prime bases
_PSI_12, _PSI_13 = 318665857834031151167461, 3317044064679887385961981


def test_a_strong_pseudoprime_is_no_field(capsys):
    """--prime once accepted _PSI_12 = 399165290221 * 798330580441, which
    passed Miller-Rabin on the first 12 primes; 41 is now a witness too, as
    the test claims validity below _PSI_13."""
    from sympy import isprime

    from totref.fields import is_prime

    for n in (_PSI_12, _PSI_12 + 2, 2**61 - 1, 2**79 - 1, 10**24 + 7, _PSI_13 - 2):
        assert is_prime(n) == isprime(n), n
    assert main(["analyze", str(GRAPHS / "four_cycle.json"), "--prime", str(_PSI_12)]) == 1
    assert capsys.readouterr().err == f"error: {_PSI_12} is not prime\n"


def test_a_modulus_beyond_the_primality_bound_is_refused(capsys, tmp_path):
    """_PSI_13 = 1287836182261 * 2575672364521 passes Miller-Rabin on all 13
    bases, and --prime once accepted it (`admits (ezd witness)`, exit 0).
    The test is proven below _PSI_13 only, so every modulus from there on is
    refused, the prime 2**89 - 1 too, on the command line and in a complex
    file; 4294967311 is still a field."""
    from totref.fields import is_prime

    assert _PSI_13 == 1287836182261 * 2575672364521
    src = _four_cycle_window(capsys, tmp_path, "--prime", "4294967311")
    assert main(["analyze", _FOUR_CYCLE, "--prime", "4294967311"]) == 0
    capsys.readouterr()
    for p in (_PSI_13, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(p)
        message = f"error: {p} is too large: primality is certified only below {_PSI_13}\n"
        out = tmp_path / "out.json"
        build = ["build", _FOUR_CYCLE, "--mode", "ezd", "--prime", str(p), "--out", str(out)]
        for argv in (["analyze", _FOUR_CYCLE, "--prime", str(p)], build):
            assert main(argv + ["--json"]) == 1
            assert capsys.readouterr() == ("", message) and not out.exists()
        obj = json.loads(src.read_text())
        obj["algebra"]["field"]["p"] = p
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["verify", str(bad)], ["lift", str(bad), "--out", str(out)]):
            assert main(argv + ["--json"]) == 1
            assert capsys.readouterr() == ("", message) and not out.exists()
