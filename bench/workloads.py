"""The three benchmark workloads: inputs made from a seed, one operation, its checks.

Each workload repeats one operation on inputs of one size, so every timed
operation does the same work.  ``setup`` builds, validates and writes the
inputs; ``prepare`` computes the expected results without the program;
``operation`` is what is timed; ``check`` raises ``CheckFailed`` on a wrong
output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

from reference import expect, parse_pair_id, vrsp_product, walk_path

# Operations call the program through its modules' attributes, so the
# wrappers that the traced run puts there see the calls.
from vrsp import Arc, LabelPair, build_graph, decomposition, products, serialization

ACTIONS = ("fetch", "store", "send", "recv", "lock", "free", "read", "write")
WEIGHTS = ("1", "2", "3", "1/2", "3/2")


def program_env(root: Path) -> dict:
    """Environment for a child interpreter that imports vrsp from the checkout's src/.

    Bytecode is cached under bench/out/pycache whatever the caller's settings
    say, so that every child after the first reads compiled modules, as it
    would from an installed package, and does not compile vrsp afresh.
    """
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env["PYTHONPYCACHEPREFIX"] = str(root / "bench" / "out" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _grid_arcs(n: int, row_labels, col_labels):
    """Arcs of an n x n grid: (i,j)->(i,j+1) carries row_labels[j], (i,j)->(i+1,j) col_labels[i]."""
    arcs = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                arcs.append((f"h{i}.{j}", f"r{i}c{j}", f"r{i}c{j + 1}", row_labels[j]))
            if i + 1 < n:
                arcs.append((f"v{i}.{j}", f"r{i}c{j}", f"r{i + 1}c{j}", col_labels[i]))
    return [f"r{i}c{j}" for i in range(n) for j in range(n)], arcs


def _build(vertices, arcs):
    """A validated vrsp graph from (id, tail, head, (action, weight)) tuples."""
    return build_graph(vertices, [Arc(i, t, h, LabelPair(lab[0], Fraction(lab[1]))) for i, t, h, lab in arcs])


def _plain(g):
    """A vrsp graph as (vertices, [(tail, head, (action, weight))]) for the reference code."""
    return list(g.vertices), [(a.tail, a.head, (a.label.action, str(a.label.weight))) for a in g.arcs]


class DecomposeGrid:
    """``vrsp decompose G.json`` as a fresh process on one fixed n x n grid.

    Row arcs carry one label and column arcs another, so exactly one label
    bipartition exists and it is accepted.  The seed picks the two labels.
    """

    name = "decompose-grid"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool) -> None:
        self.n = 5 if smoke else 20
        rng = random.Random(seed)
        actions = rng.sample(ACTIONS, 2)
        self.row_label = (actions[0], rng.choice(WEIGHTS))
        self.col_label = (actions[1], rng.choice(WEIGHTS))
        self.workdir = workdir
        self.path = workdir / f"grid{self.n}.json"
        self.stats_path = workdir / f"cli-trace-{os.getpid()}.json"
        self.child_peak_kb = 0  # largest ru_maxrss of the CLI children, in KiB
        self.env = program_env(root)
        self.child = root / "bench" / "cli_child.py"
        self.tracer = None  # set by the traced phase; then children trace themselves

    def setup(self) -> None:
        vertices, arcs = _grid_arcs(self.n, [self.row_label] * (self.n - 1), [self.col_label] * (self.n - 1))
        _build(vertices, arcs)
        doc = {
            "name": "grid",
            "vertices": vertices,
            "arcs": [
                {"id": i, "tail": t, "head": h, "action": lab[0], "weight": lab[1]} for i, t, h, lab in arcs
            ],
        }
        self.path.write_text(json.dumps(doc), encoding="utf-8")

    def prepare(self) -> None:
        pass

    def operation(self):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "vrsp.cli", "decompose", str(self.path)]
        else:
            cmd = [sys.executable, str(self.child), str(self.stats_path), "decompose", str(self.path)]
        # wait4 rather than subprocess.run, to get this child's own peak RSS.
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"vrsp decompose exited {proc.returncode}: {err.read()[-300:].decode(errors='replace')}")
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        doc = json.loads(out)
        if self.tracer is not None:
            self.tracer.merge(json.loads(self.stats_path.read_text(encoding="utf-8")))
            self.stats_path.unlink()
        return doc

    def check(self, doc) -> None:
        expect(doc["count"] == 1 and len(doc["decompositions"]) == 1, f"expected one decomposition, got {doc['count']}")
        (dec,) = doc["decompositions"]
        expect(dec["family_sizes"] == [self.n, self.n], f"family sizes {dec['family_sizes']}")
        left = [(l["action"], l["weight"]) for l in dec["left_labels"]]
        right = [(l["action"], l["weight"]) for l in dec["right_labels"]]
        expect(
            sorted([left, right]) == sorted([[self.row_label], [self.col_label]]),
            f"label sides {left} | {right}",
        )
        # The first factor is the quotient by rows, the components of the
        # right-hand labels, so it keeps the left-hand arcs.
        for factor, side in zip(dec["factors"], (left, right)):
            arcs = [(a["tail"], a["head"], (a["action"], a["weight"])) for a in factor["arcs"]]
            labels = walk_path(factor["vertices"], arcs)
            expect(labels == side * (self.n - 1), f"factor path carries {labels}")


def _sequence(rng: random.Random, actions, length: int):
    """A seeded action sequence of the given length that uses every action."""
    seq = list(actions) + [rng.choice(actions) for _ in range(length - len(actions))]
    rng.shuffle(seq)
    return seq


class SearchLabels:
    """``find_decompositions`` on a k-label path product and on a k-label prime-order DAG.

    The search tries all 2^(k-1)-1 label bipartitions of each graph.  On the
    product exactly one is accepted; the DAG has a prime vertex count, and a
    product of two factors with an arc each has a composite one, so none is.

    The seed draws several such pairs, all of the same sizes, and the
    operations take them in turn.  One pair's search can cost a fifth more
    than another's, so a run over a single pair would measure the seed as
    much as the program.  The count is odd, so that a traced run, which
    alternates traced and untraced operations, traces every pair.
    """

    name = "search-labels"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool) -> None:
        self.k, self.n, self.p, self.dag_arcs = (4, 3, 7, 10) if smoke else (8, 6, 23, 46)
        self.pairs = 1 if smoke else 7
        self.seed = seed
        self.done = 0

    def _pair(self, rng: random.Random) -> dict:
        half = self.k // 2
        actions = [(a, rng.choice(WEIGHTS)) for a in ACTIONS[: self.k]]
        rng.shuffle(actions)
        row_set, col_set = actions[:half], actions[half:]
        row_seq = _sequence(rng, row_set, self.n - 1)
        col_seq = _sequence(rng, col_set, self.n - 1)

        # A connected DAG on p vertices: a random spanning tree oriented from
        # lower to higher index, then random extra arcs; the k labels are
        # used as evenly as the arc count allows.
        p = self.p
        ends = [(rng.randrange(j), j) for j in range(1, p)]
        while len(ends) < self.dag_arcs:
            ends.append(tuple(sorted(rng.sample(range(p), 2))))
        labels = [actions[i % self.k] for i in range(len(ends))]
        rng.shuffle(labels)
        dag = _build(
            [f"d{i}" for i in range(p)],
            [(f"e{m}", f"d{i}", f"d{j}", lab) for m, ((i, j), lab) in enumerate(zip(ends, labels))],
        )
        return {
            "row_set": row_set,
            "col_set": col_set,
            "row_seq": row_seq,
            "col_seq": col_seq,
            "grid": _build(*_grid_arcs(self.n, row_seq, col_seq)),
            "dag": dag,
        }

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = [self._pair(rng) for _ in range(self.pairs)]

    def prepare(self) -> None:
        expect(all(self.p % d for d in range(2, self.p)), "DAG vertex count must be prime")

    def operation(self):
        pair = self.inputs[self.done % self.pairs]
        self.done += 1
        return pair, decomposition.find_decompositions(pair["grid"]), decomposition.find_decompositions(pair["dag"])

    def check(self, out) -> None:
        pair, grid_found, dag_found = out
        expect(not dag_found, f"prime-order DAG decomposed {len(dag_found)} ways")
        expect(len(grid_found) == 1, f"path product decomposed {len(grid_found)} ways")
        (dec,) = grid_found
        row_set, col_set = set(pair["row_set"]), set(pair["col_set"])
        left = {(l.action, str(l.weight)) for l in dec.left_labels}
        expect(left in (row_set, col_set), f"left labels {sorted(left)}")
        # Row arcs carry row_seq; the first factor keeps the left-hand arcs.
        seqs = (pair["row_seq"], pair["col_seq"]) if left == row_set else (pair["col_seq"], pair["row_seq"])
        for factor, seq in zip(dec.factors, seqs):
            expect(walk_path(*_plain(factor)) == seq, "factor path does not carry the generated sequence")


class Compose:
    """``cartesian(A, B)`` and ``vrsp(vrsp(A, B), C)``, both emitted as canonical JSON.

    Each factor is a seeded connected DAG core on private actions plus, for
    each of its two synchronising actions, one arc from a random core vertex
    into a short private chain.  A and B share one synchronising action, A
    and C another, B and C a third.  The core has a single source and every
    other core vertex an in-arc on a private action, so the vertices the
    removal rule deletes, and hence the product sizes, do not depend on the
    seed.  Their labels and shapes do, and one triple costs up to a fifth
    more than another, so the seed draws several triples and the operations
    take them in turn; the count is odd for the reason given in
    :class:`SearchLabels`.
    """

    name = "compose"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool) -> None:
        self.core, self.extra, self.chain = (3, 1, 1) if smoke else (12, 6, 3)
        self.triples = 1 if smoke else 7
        self.seed = seed
        self.done = 0

    def _factor(self, rng, prefix, syncs):
        private = [(f"{prefix}{a}", rng.choice(WEIGHTS)) for a in ACTIONS[:3]]
        m = self.core
        vertices = [f"{prefix}{i}" for i in range(m)]
        pairs = [(vertices[rng.randrange(j)], vertices[j], rng.choice(private)) for j in range(1, m)]
        for _ in range(self.extra):
            i, j = sorted(rng.sample(range(m), 2))
            pairs.append((vertices[i], vertices[j], rng.choice(private)))
        for s, sync in enumerate(syncs):
            chain = [f"{prefix}s{s}c{i}" for i in range(self.chain + 1)]
            vertices += chain
            pairs.append((vertices[rng.randrange(m)], chain[0], sync))
            pairs += [(chain[i], chain[i + 1], rng.choice(private)) for i in range(self.chain)]
        return _build(vertices, [(f"{prefix}e{i}", t, h, lab) for i, (t, h, lab) in enumerate(pairs)])

    def _triple(self, rng):
        sab, sac, sbc = ((f"sync{x}", rng.choice(WEIGHTS)) for x in ("ab", "ac", "bc"))
        return self._factor(rng, "a", (sab, sac)), self._factor(rng, "b", (sab, sbc)), self._factor(rng, "c", (sac, sbc))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = [self._triple(rng) for _ in range(self.triples)]

    def prepare(self) -> None:
        # Digest of each triple's emitted JSON, once its output has matched the reference.
        self.verified: list[bytes | None] = [None] * self.triples

    def operation(self):
        i = self.done % self.triples
        self.done += 1
        a, b, c = self.inputs[i]
        x = products.cartesian(a, b)
        y = products.vrsp(products.vrsp(a, b), c)
        return i, x, y, serialization.emit_graph(x), serialization.emit_graph(y)

    def check(self, out) -> None:
        i, x, y, x_text, y_text = out
        a, b, c = self.inputs[i]
        (na, ma), (nb, mb) = ((len(g.vertices), len(g.arcs)) for g in (a, b))
        expect(len(x.vertices) == na * nb, f"cartesian has {len(x.vertices)} vertices, expected {na * nb}")
        expect(len(x.arcs) == ma * nb + mb * na, f"cartesian has {len(x.arcs)} arcs, expected {ma * nb + mb * na}")

        digest = hashlib.sha256(f"{x_text}\0{y_text}".encode("utf-8")).digest()
        if self.verified[i] is not None:
            # The emission is canonical, so the same bytes mean the same graphs.
            expect(digest == self.verified[i], "emitted JSON differs from that of the checked output")
            return
        # The reference and the parse are slow, so each triple's first output
        # is checked in full and every later one must emit the same bytes.
        vertices, arcs = vrsp_product(vrsp_product(_plain(a), _plain(b)), _plain(c))
        coords = {v: parse_pair_id(v) for v in y.vertices}
        expect(set(coords.values()) == vertices, "vrsp vertices differ from the reference")
        got = Counter((coords[a.tail], coords[a.head], (a.label.action, str(a.label.weight))) for a in y.arcs)
        expect(got == Counter(arcs), "vrsp arcs differ from the reference")
        expect(
            serialization.parse_graph(x_text) == x and serialization.parse_graph(y_text) == y,
            "emit/parse round trip changed a graph",
        )
        self.verified[i] = digest


WORKLOADS = {w.name: w for w in (DecomposeGrid, SearchLabels, Compose)}

