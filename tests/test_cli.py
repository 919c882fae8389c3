"""Command-line interface behaviour and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import L, regular_bipartite, rename_graph

from vrsp import cli, decomposition, serialization
from vrsp import graph as graph_module
from vrsp.cli import main
from vrsp.decomposition import find_decompositions, prime_factors
from vrsp.fixtures import fixture_dir, fixture_path, load_graph
from vrsp.graph import validate
from vrsp.products import cartesian
from vrsp.serialization import emit_graph, graph_to_document, parse_graph


SRC = str(Path(__file__).resolve().parent.parent / "src")


def fx(name: str) -> str:
    return str(fixture_path(name))


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_graph(self, capsys):
        code, out, _ = run(capsys, "validate", fx("fig1.json"))
        assert code == 0 and out == ""

    def test_invalid_graph_lists_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"vertices": ["u", "v"], "arcs": ['
            '{"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": "1"},'
            '{"id": "e2", "tail": "v", "head": "u", "action": "a", "weight": "1"}]}'
        )
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1 and "cycle" in out

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert err == f"error: {bad}: malformed JSON at line 1 column 2: Expecting property name enclosed in double quotes\n"

    def test_json_too_deeply_nested_to_decode_is_input_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"vertices": ' + "[" * 100_000)
        code, out, err = run(capsys, "validate", str(deep))
        assert (code, out) == (2, "") and err.startswith("error: ") and "nested too deeply" in err


class TestProduct:
    def test_vrsp_of_fig2_factors(self, capsys):
        code, out, _ = run(capsys, "product", "--kind", "vrsp", fx("fig2_g1.json"), fx("fig2_g2.json"))
        assert code == 0
        g = parse_graph(out)
        assert len(g.vertices) == 4 and len(g.arcs) == 3

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "prod.json"
        code, out, _ = run(
            capsys, "product", "--kind", "cartesian", fx("fig3_g1.json"), fx("fig3_g2.json"), "-o", str(out_file)
        )
        assert code == 0 and out == ""
        assert len(parse_graph(out_file.read_text()).vertices) == 4

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "product", "--kind", "tensor", fx("fig1.json"), fx("fig1.json"))
        assert code == 2 and err


class TestContract:
    def test_contracts_a_row(self, capsys):
        code, out, _ = run(capsys, "contract", fx("fig1.json"), "--set", "u1,u4,u7,u10", "--id", "y~1")
        assert code == 0
        g = parse_graph(out)
        assert len(g.vertices) == 9 and "y~1" in g.vertices

    def test_row_contraction_pipeline_renders_three_node_chain(self, capsys, tmp_path):
        current = fx("fig1.json")
        rows = ("u1,u4,u7,u10", "u2,u5,u8,u11", "u3,u6,u9,u12")
        for i, row in enumerate(rows, start=1):
            out = tmp_path / f"step{i}.json"
            code = main(["contract", current, "--set", row, "--id", f"y~{i}", "-o", str(out)])
            assert code == 0
            current = str(out)
        code, dot, _ = run(capsys, "dot", current)
        assert code == 0
        assert sum(line.endswith('";') for line in dot.splitlines()) == 3
        assert dot.count(" -> ") == 2

    def test_cycle_creating_set_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            '{"vertices": ["u", "v", "w"], "arcs": ['
            '{"id": "e1", "tail": "u", "head": "v", "action": "a", "weight": "1"},'
            '{"id": "e2", "tail": "v", "head": "w", "action": "a", "weight": "1"}]}'
        )
        code, _, err = run(capsys, "contract", str(path), "--set", "u,w", "--id", "~")
        assert code == 2 and "cycle" in err

    def test_json_array_names_ids_that_hold_commas(self, capsys, tmp_path):
        path = tmp_path / "product.json"
        path.write_text(emit_graph(cartesian(load_graph("fig2_g1"), load_graph("fig2_g2"))), encoding="utf-8")
        code, out, err = run(capsys, "contract", str(path), "--set", '["(y~1,u5)","(y~1,u6)"]', "--id", "X")
        assert code == 0, err
        g = parse_graph(out)
        assert "X" in g.vertices and not {"(y~1,u5)", "(y~1,u6)"} & set(g.vertices)

    def test_set_too_deeply_nested_to_decode_is_input_error(self, capsys):
        code, _, err = run(capsys, "contract", fx("fig1.json"), "--set", "[" * 100_000, "--id", "X")
        assert code == 2 and err.startswith("error: ")


# SHA-256 of stdout and the exit code of ``vrsp iso`` on (left, right) pairs:
# the witness is keyed in the left graph's sorted vertex order.
ISO_GOLDEN = {
    "fig1 vs renamed": (0, "e6e4f5a17df97b18b6a64e1a0538f74dcbfea048b3d0496e660d332f0d426d9f"),
    "fig3 vs factor product": (1, "507e7ea48eb801802796212d219f5efcbcd5df6e95f45b04ee9567e13db24ccc"),
    "fig2 factor product vs renamed": (0, "528f4a3cca714034eb7c5b3a41277e302c99b3390d7585a84df052386bd48b6a"),
}


def iso_pair(case: str):
    if case == "fig1 vs renamed":
        g = load_graph("fig1")
        return g, rename_graph(random.Random(1), g)
    if case == "fig3 vs factor product":
        return load_graph("fig3"), cartesian(load_graph("fig3_g1"), load_graph("fig3_g2"))
    g = cartesian(load_graph("fig2_g1"), load_graph("fig2_g2"))
    return g, rename_graph(random.Random(2), g)


class TestIso:
    @pytest.mark.parametrize("case", sorted(ISO_GOLDEN))
    def test_stdout_digest_and_exit_code(self, capsys, tmp_path, case):
        paths = []
        for side, g in zip(("left", "right"), iso_pair(case)):
            paths.append(tmp_path / f"{side}.json")
            paths[-1].write_text(emit_graph(g), encoding="utf-8")
        code, out, _ = run(capsys, "iso", *map(str, paths))
        mapping = json.loads(out)["mapping"]
        assert mapping is None or list(mapping) == sorted(mapping)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == ISO_GOLDEN[case]

    @pytest.mark.parametrize("renamed, expected", [(False, 1), (True, 0)])
    def test_regular_bipartite_pair_is_decided_quickly(self, tmp_path, renamed, expected):
        # 160 vertices; the backtracking matcher this replaced did not decide
        # such pairs within 120 s.  The timeout turns a regression into a failure.
        rng = random.Random(160)
        g = regular_bipartite(rng, 80)
        h = rename_graph(rng, g) if renamed else regular_bipartite(rng, 80, "q")
        (tmp_path / "g.json").write_text(emit_graph(g), encoding="utf-8")
        (tmp_path / "h.json").write_text(emit_graph(h), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        argv = [sys.executable, "-m", "vrsp.cli", "iso", str(tmp_path / "g.json"), str(tmp_path / "h.json")]
        assert subprocess.run(argv, env=env, capture_output=True, timeout=30).returncode == expected

    def test_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "iso", fx("fig3_g1.json"), fx("fig2_g1.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["isomorphic"] and payload["mapping"] == {"y~1": "y~1", "y~2": "y~2"}

    def test_non_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "iso", fx("fig2_g1.json"), fx("fig2_g2.json"))
        assert code == 1
        assert json.loads(out) == {"isomorphic": False, "mapping": None}


class TestVerify:
    def test_fig1_accepts(self, capsys):
        code, out, _ = run(capsys, "verify", fx("fig1.json"), "--rows", fx("fig1.rows"), "--cols", fx("fig1.cols"))
        assert code == 0
        payload = json.loads(out)
        assert payload["accepted"] and payload["family_sizes"] == [3, 4]

    def test_fig3_rejects_with_c4(self, capsys):
        code, out, _ = run(capsys, "verify", fx("fig3.json"), "--rows", fx("fig3.rows"), "--cols", fx("fig3.cols"))
        assert code == 1
        payload = json.loads(out)
        assert not payload["accepted"]
        assert not payload["conditions"]["C4"]["passed"]

    def test_fig2_rejects_with_c1_c3(self, capsys):
        code, out, _ = run(capsys, "verify", fx("fig2.json"), "--rows", fx("fig2.rows"), "--cols", fx("fig2.cols"))
        assert code == 1
        payload = json.loads(out)
        assert not payload["conditions"]["C1"]["passed"]
        assert not payload["conditions"]["C3"]["passed"]

    def test_empty_family_is_a_rejection(self, capsys, tmp_path):
        empty = tmp_path / "empty.cols"
        empty.write_text("# no layers\n")
        code, out, err = run(capsys, "verify", fx("fig1.json"), "--rows", fx("fig1.rows"), "--cols", str(empty))
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["family_sizes"] == [3, 0]
        assert [c for c, r in payload["conditions"].items() if not r["passed"]] == ["C1", "C3", "C6"]
        assert payload["conditions"]["C6"]["witness"] == "quotient by cols is not isomorphic to row layer 1"

    def test_product_layers_as_json_arrays(self, capsys, tmp_path):
        # Product vertex ids such as "(y~1,x~2)" hold commas, so only the
        # JSON array form of a family line can name them.
        g = cartesian(load_graph("fig2_g1"), load_graph("fig3_g2"))
        graph_path = tmp_path / "g.json"
        graph_path.write_text(emit_graph(g))
        rows, cols = decomposition.layers_from_label_split(g, {L("a")})

        def verify(join):
            for name, fam in (("rows", rows), ("cols", cols)):
                (tmp_path / name).write_text("".join(join(sorted(s)) + "\n" for s in fam.sets))
            return run(capsys, "verify", str(graph_path), "--rows", str(tmp_path / "rows"), "--cols", str(tmp_path / "cols"))

        code, out, _ = verify(json.dumps)
        assert code == 0 and json.loads(out)["accepted"]
        code, _, err = verify(",".join)
        assert code == 2 and "repeated vertex id" in err

    def test_family_for_wrong_graph_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", fx("fig3.json"), "--rows", fx("fig1.rows"), "--cols", fx("fig1.cols"))
        assert code == 2 and err


class TestDecompose:
    def test_fig1(self, capsys):
        code, out, _ = run(capsys, "decompose", fx("fig1.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        (dec,) = payload["decompositions"]
        assert dec["left_labels"] == [{"action": "a", "weight": "1"}]
        assert dec["right_labels"] == [{"action": "b", "weight": "1"}, {"action": "c", "weight": "1"}]
        assert dec["family_sizes"] == [3, 4]
        sizes = sorted(len(f["vertices"]) for f in dec["factors"])
        assert sizes == [3, 4]

    def test_prime_graph_exits_1(self, capsys):
        code, out, _ = run(capsys, "decompose", fx("fig3.json"))
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_recursive_with_out_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", fx("fig1.json"), "--recursive", "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["prime_factors"]) == 2
        for entry in payload["decompositions"]:
            for file in entry["files"]:
                parse_graph(open(file).read())
        assert len(payload["prime_factor_files"]) == 2

    def test_recursive_searches_the_input_once(self, capsys, monkeypatch, fig1):
        code, plain, _ = run(capsys, "decompose", fx("fig1.json"))
        assert code == 0
        expected = json.loads(plain)
        expected["prime_factors"] = [graph_to_document(f) for f in prime_factors(fig1)]

        searched = []

        def counting(graph, *args, **kwargs):
            searched.append(graph)
            return find_decompositions(graph, *args, **kwargs)

        monkeypatch.setattr(cli, "find_decompositions", counting)
        monkeypatch.setattr(decomposition, "find_decompositions", counting)
        code, out, _ = run(capsys, "decompose", fx("fig1.json"), "--recursive")
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"
        assert sum(graph == fig1 for graph in searched) == 1

    def test_recursive_searches_no_components(self, capsys, component_searches):
        # The input's accepted split proves it connected, and the factors are
        # quotients of a connected graph, recorded as connected where they are made.
        code, out, _ = run(capsys, "decompose", fx("fig1.json"), "--recursive")
        assert code == 0 and len(json.loads(out)["prime_factors"]) == 2
        assert component_searches == []

    def test_validates_the_input_once(self, capsys, monkeypatch, fig1):
        checked = []

        def counting(g):
            checked.append(g)
            return validate(g)

        # Wherever it is called from: the parser once called it by its own name.
        monkeypatch.setattr(graph_module, "validate", counting)
        monkeypatch.setattr(serialization, "validate", counting, raising=False)
        code, _, _ = run(capsys, "decompose", fx("fig1.json"))
        assert code == 0
        assert sum(g == fig1 for g in checked) == 1

    def test_max_labels_flag(self, capsys):
        code, _, err = run(capsys, "decompose", fx("fig1.json"), "--max-labels", "2")
        assert code == 2 and "label" in err.lower()

    def test_label_budget_variable_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("VRSP_MAX_LABELS", "x")
        code, out, err = run(capsys, "decompose", fx("fig1.json"))
        assert (code, out) == (2, "") and "VRSP_MAX_LABELS must be an integer, got 'x'" in err


# SHA-256 of stdout and the exit code of each decomposition command on every
# bundled fixture: the verifier may change how it decides, never what it prints.
GOLDEN = {
    ("decompose", "fig1"): (0, "e9433141fc64f0a3d2469f485e125fd6139419416e0b8ed218ce8080ff3f3358"),
    ("decompose", "fig2"): (0, "c487daae74e293c00900898180036ac2c14ad337ada9bdfd31341e323593b368"),
    ("decompose", "fig2_g1"): (1, "d4425d0f37c258047fee5a905e7693b2b6373c90399ba0c36745fd413020f4fa"),
    ("decompose", "fig2_g2"): (1, "d4425d0f37c258047fee5a905e7693b2b6373c90399ba0c36745fd413020f4fa"),
    ("decompose", "fig3"): (1, "d4425d0f37c258047fee5a905e7693b2b6373c90399ba0c36745fd413020f4fa"),
    ("decompose", "fig3_g1"): (1, "d4425d0f37c258047fee5a905e7693b2b6373c90399ba0c36745fd413020f4fa"),
    ("decompose", "fig3_g2"): (1, "d4425d0f37c258047fee5a905e7693b2b6373c90399ba0c36745fd413020f4fa"),
    ("decompose --recursive", "fig1"): (0, "ebdf02c1a066e2364be9323c96d0c680f759b5fd054368c51e46c0cbdacc012f"),
    ("decompose --recursive", "fig2"): (0, "68a172ed97ec84005f57ecc84be58bc8d0809c5b3de6a355b8e18652c8b7648a"),
    ("decompose --recursive", "fig2_g1"): (1, "81baac1d3c236ce8b8e18fecde03a7c1be89995e7c3b72acaf7eddb07d3c77ed"),
    ("decompose --recursive", "fig2_g2"): (1, "dd8fa513675c7715dcfa4ac7c1a3935a839068a9d9bd5bc63cb182749adba5f9"),
    ("decompose --recursive", "fig3"): (1, "2616ac9b37a27e6f9231ec4214ee77d69effb4902b104108994b2807f707c8db"),
    ("decompose --recursive", "fig3_g1"): (1, "afb44371ee90cd5959d5cd7cc0e5a78378e9758e6c5232515db17ef5a9d1a93f"),
    ("decompose --recursive", "fig3_g2"): (1, "3dd571b090846ff3f6ce6cd94db251dc03f13a6c2fdda1c87f4e76dc9a87261d"),
    ("verify", "fig1"): (0, "166aa0d5166f22b4ef1890a3a356c92927749b194624d63498ab59133f65b153"),
    ("verify", "fig2"): (1, "9cd65a781743a7e8541bdcf228c3e364c326577fc89bb4fe4d5aa1bffb56d224"),
    ("verify", "fig3"): (1, "11469acd1f2952f3da6948a1c79b452ca58f5a78747d4546c8f6b35ba8e308b2"),
    ("verify swapped", "fig1"): (0, "72b46e0f0a0bd3b2f1da4a3af9f12299bfaf64c852647e113c577f82d57c4dfc"),
    ("verify swapped", "fig2"): (1, "15b9d6e98ab8e13b2790d87435d766ad96c03725a8fcb187f1d9e51a6c301910"),
    ("verify swapped", "fig3"): (1, "6a24e1d9b6f5fef4d0eed6271ae9088f62cb63812dc11479706e1d376e5a54c9"),
}


# The same for the commands whose stdout is all emit_graph: every product
# kind on the two bundled factor pairs, and one row contracted in fig1.
COMPOSE_GOLDEN = {
    ("product --kind cartesian", "fig2"): (0, "eecbaa703b15615804ef0688ab70a721f23a0b8499b3dc1f1568eb72983f2c61"),
    ("product --kind cartesian", "fig3"): (0, "9a4b7bf389452d8c11886a83d419617def1f697ac9941baf8d6135968afd1b41"),
    ("product --kind intermediate", "fig2"): (0, "8d5cf745c7d171a73f3ced5f638404f98fa12b90f34dcf2b88c6e53797cdc314"),
    ("product --kind intermediate", "fig3"): (0, "9a4b7bf389452d8c11886a83d419617def1f697ac9941baf8d6135968afd1b41"),
    ("product --kind vrsp", "fig2"): (0, "0e74a02dca87912cf4d84f47503e46eb15871c8f3eeaba68ba89d7ddb9e5fdcb"),
    ("product --kind vrsp", "fig3"): (0, "9a4b7bf389452d8c11886a83d419617def1f697ac9941baf8d6135968afd1b41"),
    ("contract", "fig1"): (0, "a4d4b406947698dda96b965ffa29f9ce4cf9a37c6254a561dc6599f8517cecaf"),
}


class TestGoldenOutput:
    def test_every_bundled_graph_and_family_is_pinned(self):
        graphs = {p.stem for p in fixture_dir().glob("*.json")}
        with_families = {p.stem for p in fixture_dir().glob("*.rows")}
        assert {g for _, g in GOLDEN} == graphs
        assert {g for command, g in GOLDEN if command.startswith("verify")} == with_families

    @pytest.mark.parametrize("command, graph", sorted(GOLDEN))
    def test_stdout_digest_and_exit_code(self, capsys, command, graph):
        argv = [fx(f"{graph}.json")]
        if command == "decompose --recursive":
            argv.append("--recursive")
        elif command.startswith("verify"):
            rows, cols = fx(f"{graph}.rows"), fx(f"{graph}.cols")
            if command == "verify swapped":
                rows, cols = cols, rows
            argv += ["--rows", rows, "--cols", cols]
        code, out, _ = run(capsys, command.split()[0], *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command, graph]

    @pytest.mark.parametrize("command, graph", sorted(COMPOSE_GOLDEN))
    def test_composition_stdout_digest_and_exit_code(self, capsys, command, graph):
        if command == "contract":
            argv = ["contract", fx(f"{graph}.json"), "--set", "u1,u4,u7,u10", "--id", "y~1"]
        else:
            argv = [*command.split(), fx(f"{graph}_g1.json"), fx(f"{graph}_g2.json")]
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == COMPOSE_GOLDEN[command, graph]


class TestDot:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "dot", fx("fig1.json"))
        assert code == 0
        assert out.startswith('digraph "fig1" {') and out.count(" -> ") == 17


class TestStartup:
    def test_decompose_imports_no_dataclasses_inspect_or_random(self):
        # -S skips the site module, so no .pth file can have imported these
        # before vrsp does; each costs every `vrsp` process its import time.
        child = (
            "import sys, vrsp.cli\n"
            f"code = vrsp.cli.main(['decompose', {fx('fig1.json')!r}])\n"
            "print(code, sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", child],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "0 []\n")

    def test_decompose_imports_no_argparse(self):
        # A well-formed command line is read without argparse, which with
        # gettext, locale and shutil would cost every `vrsp` process milliseconds.
        child = (
            "import sys, vrsp.cli\n"
            f"code = vrsp.cli.main(['decompose', {fx('fig1.json')!r}])\n"
            "print(code, sorted({'argparse', 'gettext', 'locale', 'shutil'} & set(sys.modules)), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", child],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "0 []\n")


class TestMainModule:
    """``python -m vrsp.cli``, the entry point that the benchmark runs."""

    def vrsp(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "vrsp.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            timeout=60,
        )

    def test_help(self):
        proc = self.vrsp("--help")
        assert proc.returncode == 0 and proc.stdout.startswith(b"usage: vrsp")

    def test_missing_graph_is_a_usage_error(self):
        proc = self.vrsp("decompose")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"vrsp decompose: error: the following arguments are required: graph" in proc.stderr

    def test_decompose_stdout_is_golden(self):
        proc = self.vrsp("decompose", fx("fig1.json"))
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN["decompose", "fig1"]


# Plainly well-formed command lines over placeholder paths, which the matcher
# must read itself; the grammar corpus below is built from them.
PLAIN = [
    ["validate", "{g}"],
    ["product", "--kind", "vrsp", "{g1}", "{g2}"],
    ["product", "--kind", "cartesian", "{g1}", "{g2}", "-o", "{out}"],
    ["contract", "{g}", "--set", "u1,u4,u7,u10", "--id", "y~1"],
    ["contract", "{g}", "--set", '["u1","u4"]', "--id", "X", "--output", "{out}"],
    ["iso", "{g1}", "{g2}"],
    ["verify", "{g}", "--rows", "{rows}", "--cols", "{cols}"],
    ["decompose", "{g}"],
    ["decompose", "{g}", "--recursive", "--max-labels", "5", "--out-dir", "{dir}"],
    ["dot", "{g}"],
]

# The command lines of the tests above, the fixture standing for any input file.
EXISTING = [
    [],
    ["--help"],
    ["validate", "{g}"],
    ["product", "--kind", "vrsp", "{g1}", "{g2}"],
    ["product", "--kind", "cartesian", "{g1}", "{g2}", "-o", "{out}"],
    ["product", "--kind", "tensor", "{g}", "{g}"],
    ["contract", "{g}", "--set", "u1,u4,u7,u10", "--id", "y~1"],
    ["contract", "{g}", "--set", "u1,u4,u7,u10", "--id", "y~1", "-o", "{out}"],
    ["contract", "{g}", "--set", "u,w", "--id", "~"],
    ["contract", "{g}", "--set", '["(y~1,u5)","(y~1,u6)"]', "--id", "X"],
    ["contract", "{g}", "--set", "[" * 100_000, "--id", "X"],
    ["contract", "{g}", "--set", "a", "--id", "z", "-o", "{out}"],
    ["iso", "{g1}", "{g2}"],
    ["iso", "{g}", "{g}"],
    ["verify", "{g}", "--rows", "{rows}", "--cols", "{cols}"],
    ["decompose", "{g}"],
    ["decompose", "{g}", "--recursive"],
    ["decompose", "{g}", "--recursive", "--out-dir", "{dir}"],
    ["decompose", "{g}", "--max-labels", "2"],
    ["dot", "{g}"],
]


def _units(argv: list[str]) -> tuple[list[str], list[list[str]]]:
    """The positionals of a plain command line, and its options each with its value."""
    positionals, options, rest = [], [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
        else:
            options.append([arg] if arg == "--recursive" else [arg, next(rest)])
    return positionals, options


def _grammar_corpus() -> dict[tuple[str, ...], bool]:
    """Command lines, each with whether the matcher must accept it."""
    corpus: dict[tuple[str, ...], bool] = {}

    def add(argv, plain=False):
        corpus[tuple(argv)] = corpus.get(tuple(argv), False) or plain

    for argv in EXISTING:
        add(argv)
    for argv in PLAIN:
        add(argv, True)
        command = argv[0]
        positionals, options = _units(argv)
        for i, group in enumerate(options):
            others = [arg for other in options[:i] + options[i + 1 :] for arg in other]
            for k in range(len(positionals) + 1):  # before, between and after the positionals
                add([command, *positionals[:k], *group, *positionals[k:], *others], True)
            if len(group) == 2:
                name = "--output" if group[0] == "-o" else group[0]
                add([command, *positionals, f"{name}={group[1]}", *others], True)
                add([command, *positionals, group[0], *others])  # no value
                add([command, *positionals, f"{group[0]}=-x", *others])
            add([command, *positionals, *group, *others, *group])  # repeated
            add([command, *positionals, *others])  # missing, if required
        for k in range(len(argv) + 1):
            for token in ("-h", "--help", "--", ""):
                add([*argv[:k], token, *argv[k:]])
        for k in range(1, len(argv)):
            if not argv[k].startswith("-"):
                for value in ("-5", "-x", "", "-x y"):
                    add([*argv[:k], value, *argv[k + 1 :]])
        for k in range(len(positionals)):
            add([command, *positionals[:k], *positionals[k + 1 :], *(a for g in options for a in g)])
        for extra in ("extra", "--nope", "--nope=1", "-z", "-"):
            add([*argv, extra])
        add([command])
    for argv in (
        ["decompose", "{g}", "--max", "2"],
        ["decompose", "{g}", "--max=2"],
        ["decompose", "{g}", "--rec"],
        ["decompose", "{g}", "--recursive=1"],
        ["decompose", "{g}", "--max-labels", "x"],
        ["decompose", "{g}", "--max-labels", "1.5"],
        ["decompose", "{g}", "--max-labels=-5"],
        ["decompose", "{g}", "--max-labels", " 5"],
        ["decompose", "{g}", "--max-labels="],
        ["decompose", "{g}", "--out-dir="],
        ["product", "--kind", "tensor", "{g1}", "{g2}"],
        ["product", "--kind=", "{g1}", "{g2}"],
        ["product", "--k", "vrsp", "{g1}", "{g2}"],
        ["product", "--kind", "vrsp", "{g1}", "{g2}", "-o={out}"],
        ["product", "--kind", "vrsp", "{g1}", "{g2}", "-o{out}"],
        ["product", "--kind", "vrsp", "{g1}", "{g2}", "--out", "{out}"],
        ["contract", "{g}", "--set=u1,u4=x", "--id=y"],
        ["decom", "{g}"],
        ["nope"],
        [""],
        ["-h"],
        ["--", "decompose", "{g}"],
    ):
        add(argv)
    return corpus


GRAMMAR = _grammar_corpus()


class TestGrammar:
    """The matcher reads what argparse reads, and leaves the rest to it byte for byte."""

    @staticmethod
    def fill(template, tmp_path) -> list[str]:
        """``template`` with each ``{name}`` replaced by its file, wherever it stands in an argument."""
        paths = {
            "g": fx("fig1.json"),
            "g1": fx("fig2_g1.json"),
            "g2": fx("fig2_g2.json"),
            "rows": fx("fig1.rows"),
            "cols": fx("fig1.cols"),
            "out": str(tmp_path / "out.json"),
            "dir": str(tmp_path / "dir"),
        }
        argv = list(template)
        for name, path in paths.items():
            argv = [arg.replace(f"{{{name}}}", path) for arg in argv]
        return argv

    @pytest.mark.parametrize("template", sorted(GRAMMAR), ids=lambda t: " ".join(t)[:80] or "<empty>")
    def test_matcher_agrees_with_argparse(self, capsys, monkeypatch, tmp_path, template):
        monkeypatch.chdir(tmp_path)  # argparse reads "-o -5" as an output file named "-5"
        argv = self.fill(template, tmp_path)
        matched = cli._match(argv)
        if GRAMMAR[template]:
            assert matched is not None
        try:
            parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
        capsys.readouterr()
        if matched is not None:
            assert vars(matched) == parsed

        fast = run(capsys, *argv)
        monkeypatch.setattr(cli, "_match", lambda argv: None)
        assert run(capsys, *argv) == fast


class TestRobustness:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2 and err

    def test_unreadable_file_is_named_once(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.rows")
        code, out, err = run(capsys, "verify", fx("fig1.json"), "--rows", missing, "--cols", fx("fig1.cols"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {missing}: ") and err.count(missing) == 1

    def test_disconnected_graph_cannot_be_decomposed(self, capsys, tmp_path):
        path = tmp_path / "two_islands.json"
        path.write_text('{"vertices": ["u", "v"], "arcs": []}')
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2 and "connected" in err
        assert err == "error: decomposition needs a non-empty weakly connected graph\n"

    @staticmethod
    def run_with_memory_limit(mib: int, *argv: str) -> subprocess.CompletedProcess:
        """``python -m vrsp.cli *argv`` as one child limited to ``mib`` MiB of address space."""
        resource = pytest.importorskip("resource")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

        return subprocess.run(
            [sys.executable, "-m", "vrsp.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8"),
            capture_output=True,
            timeout=120,
            preexec_fn=limit_memory,
        )

    def test_out_of_memory_is_input_error(self, tmp_path):
        # One child, limited to 256 MiB of address space, builds the product
        # of two 1001-vertex paths: a million vertices, over a gigabyte.
        paths = []
        for name in ("left", "right"):
            vertices = [f"{name}{i}" for i in range(1001)]
            arcs = [
                {"id": f"e{i}", "tail": vertices[i], "head": vertices[i + 1], "action": name, "weight": "1"}
                for i in range(1000)
            ]
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"vertices": vertices, "arcs": arcs}), encoding="utf-8")

        proc = self.run_with_memory_limit(256, "product", "--kind", "cartesian", *map(str, paths))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == "error: out of memory while running vrsp product (1001 × 1001 = 1002001 pairs)\n".encode()

    def test_decompose_out_of_memory_is_input_error(self, tmp_path):
        # One child, limited to 64 MiB of address space, decomposes a 300x300
        # grid, which takes about 110 MiB; start-up takes about 20 MiB.
        n = 300
        vertices = [f"v{i}.{j}" for i in range(n) for j in range(n)]
        arcs = [
            {"id": f"{d}{i}.{j}", "tail": f"v{i}.{j}", "head": f"v{i + di}.{j + dj}", "action": d, "weight": "1"}
            for d, di, dj in (("h", 0, 1), ("v", 1, 0))
            for i in range(n - di)
            for j in range(n - dj)
        ]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"vertices": vertices, "arcs": arcs}), encoding="utf-8")

        proc = self.run_with_memory_limit(64, "decompose", str(path))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: out of memory while running vrsp decompose\n"

    def test_repeated_vertex_id_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"vertices": ["u", "u", "v"], "arcs": []}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "'u'" in err

    def test_unwritable_output_is_input_error(self, capsys, tmp_path):
        out_file = str(tmp_path / "missing" / "out.json")
        code, _, err = run(capsys, "product", "--kind", "vrsp", fx("fig2_g1.json"), fx("fig2_g2.json"), "-o", out_file)
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{g}"],
            ["dot", "{g}"],
            ["product", "--kind", "cartesian", "{g}", "{g}"],
            ["product", "--kind", "intermediate", "{g}", "{g}"],
            ["product", "--kind", "vrsp", "{g}", "{g}"],
            ["contract", "{g}", "--set", "a", "--id", "z", "-o", "{out}"],
            ["iso", "{g}", "{g}"],
            ["verify", "{g}", "--rows", "{rows}", "--cols", "{cols}"],
            ["decompose", "{g}"],
        ],
    )
    def test_lone_surrogate_is_input_error(self, capsys, tmp_path, argv):
        # JSON escapes can spell a lone surrogate, which UTF-8 cannot encode.
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"vertices": ["a", "\\ud800"], "arcs": ['
            '{"id": "e", "tail": "a", "head": "\\ud800", "action": "x", "weight": "1"}]}'
        )
        paths = {"g": str(path), "out": str(tmp_path / "out.json"), "rows": fx("fig1.rows"), "cols": fx("fig1.cols")}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "UTF-8" in err

    @pytest.mark.parametrize(
        "weight", ['"1/' + "9" * 5000 + '"', "1" * 5000], ids=["token", "json-integer"]
    )
    def test_overlong_weight_is_input_error(self, capsys, tmp_path, weight):
        # 5000 digits: more than Python converts to an integer by default.
        path = tmp_path / "long.json"
        path.write_text(
            '{"vertices": ["u", "v"], "arcs": ['
            '{"id": "e", "tail": "u", "head": "v", "action": "a", "weight": ' + weight + "}]}"
        )
        code, out, err = run(capsys, "validate", str(path))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 5000:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and f"limit ({limit} digits)" in err
        else:
            assert code != 3

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(g1, g2):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "find_isomorphism", broken)
        code, out, err = run(capsys, "iso", fx("fig1.json"), fx("fig1.json"))
        assert code == 3 and out == "" and err == "internal error: RuntimeError: boom\n"

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0
