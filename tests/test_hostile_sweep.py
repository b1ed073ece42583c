"""A seeded sweep of hostile instance documents through every `qw`
subcommand, in process (cli.main).

Each document is a small generated instance, mutated the way a careless or
hostile writer might: cut short, given stray bytes, a field of the wrong
type or of an extreme value, a dangling or repeated input, a cycle, a
literal out of range, a huge proof block.  Every run must exit 0, 1
(QueryDagError) or 2 (usage error) and raise nothing: no traceback, no
RecursionError, no MemoryError.  The argument lists include some that the
parser must refuse.  A second sweep gives valid documents odd clause
shapes (empty, over input wires only, tautological, with a repeated
literal), which every decision method must answer alike, with the answer
and witness that full enumeration gives.  A third sweep declares the nodes
in a shuffled order, under ids that run against the edges, so that neither
declaration order nor id order is topological: every method and both
threshold backends must again give enumeration's answer and witness, the
backends through the same threshold queries.  Only random.Random(seed)
drives it.
"""

from __future__ import annotations

import json
import random

from querydag import build_compressed, build_separator_tree, parse_dag, serialize_dag
from querydag.cli import gen_instance, main

from conftest import enum_evaluate

SEEDS = range(40)

# Values that a field of any type may be replaced with.
ODD_VALUES = (
    None, True, 1.5, -1, 0, "1", [], {}, [[]], [1, "x"], 10**20, -(10**20), 2**63,
)

COMMANDS = (
    ["evaluate"],
    ["septree"],
    ["septree", "--depth", "2", "--size", "1"],
    ["compress"],
    ["solve", "--method", "compress", "--witness", "--transcript"],
    ["solve", "--method", "depth", "--witness"],
    ["solve", "--method", "direct"],
    ["solve", "--backend", "brute", "--cap", "8"],
    ["arith", "--cap", "10"],
)

# Argument lists of the subcommands that read no instance, valid or not.
NO_INPUT = (
    ["gen", "--family", "chain", "--n", "3"],
    ["gen", "--family", "random-sep", "--n", "5", "--seed", "-7", "--sep-bound", "1"],
    ["gen", "--family", "bogus", "--n", "3"],
    ["gen", "--family", "star", "--n", "0"],
    ["bench", "--family", "chain", "--sizes", "1,2", "--method", "depth"],
    ["bench", "--family", "chain", "--sizes", "2,x"],
    ["bench", "--family", "layered", "--sizes", "3", "--reps", "-1"],
    ["septree", "--depth", "2"],
    ["solve", "--method", "bogus"],
    ["arith", "--cap", "-3"],
    [],
)


def seeded_doc(seed):
    """The small generated instance document of `seed`, as a dict."""
    family = ("chain", "star", "layered", "random-sep")[seed % 4]
    return json.loads(serialize_dag(gen_instance(family, 2 + seed % 4, seed)))


def mutate(rng, doc):
    """One hostile variant of the instance document `doc`, as text or bytes."""
    nodes = doc["nodes"]
    node = rng.choice(nodes)
    kind = rng.randrange(12)
    if kind == 0:
        text = json.dumps(doc)
        return text[: rng.randrange(len(text))]
    if kind == 1:
        text = json.dumps(doc).encode()
        at = rng.randrange(len(text))
        return text[:at] + bytes(rng.randrange(256) for _ in range(3)) + text[at:]
    if kind == 2:
        field = rng.choice(("id", "kind", "inputs", "proof_vars", "clauses"))
        node[field] = rng.choice(ODD_VALUES)
    elif kind == 3:
        doc[rng.choice(("nodes", "output"))] = rng.choice(ODD_VALUES)
    elif kind == 4:
        del node[rng.choice(tuple(node))]
    elif kind == 5:
        node["inputs"] = node["inputs"] + [rng.choice((10**6, node["id"], -1))]
    elif kind == 6:
        nodes.append(dict(rng.choice(nodes)))
    elif kind == 7:
        # A cycle: the output feeds a node it reads, directly or not.
        first = nodes[0]
        first["inputs"] = first["inputs"] + [doc["output"]]
    elif kind == 8:
        bound = len(node["inputs"]) + node["proof_vars"]
        node["clauses"] = node["clauses"] + [[rng.choice((0, bound + 1, -bound - 1))]]
    elif kind == 9:
        node["proof_vars"] = rng.choice((10**20, 10**6, 2**31))
    elif kind == 10:
        doc["nodes"] = []
    else:
        for other in nodes:
            other["clauses"] = [[rng.choice((1, -1)) * (1 + k % 3)] for k in range(rng.randrange(1, 4))]
            other["proof_vars"] = max(other["proof_vars"], 3)
    return json.dumps(doc)


def test_hostile_documents_through_every_subcommand(tmp_path):
    rng = random.Random(2024)
    path, out = tmp_path / "instance.json", str(tmp_path / "out.json")
    runs = 0
    for seed in SEEDS:
        doc = seeded_doc(seed)
        hostile = mutate(rng, doc)
        if isinstance(hostile, bytes):
            path.write_bytes(hostile)
        else:
            path.write_text(hostile)
        for command in COMMANDS:
            code = main([*command, "-i", str(path), "-o", out])
            assert code in (0, 1, 2), (seed, command, hostile)
            runs += 1
    for argv in NO_INPUT:
        assert main([*argv, "-o", out]) in (0, 1, 2), argv
    assert runs == len(SEEDS) * len(COMMANDS)


def mutate_clauses(rng, doc):
    """`doc` with one to three odd but valid clauses inserted, as text."""
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(doc["nodes"])
        wires = len(node["inputs"])
        var_count = wires + node["proof_vars"]

        def lit(top):
            return rng.randint(1, top) * rng.choice((1, -1))

        kind = rng.randrange(4) if var_count else 0
        if kind == 0:
            clause = []
        elif kind == 1:
            clause = [lit(wires) for _ in range(rng.randint(1, 3))] if wires else []
        elif kind == 2:
            var = rng.randint(1, var_count)
            clause = [var, -var] + [lit(var_count) for _ in range(rng.randint(0, 2))]
        else:
            clause = [lit(var_count) for _ in range(rng.randint(1, 2))]
            clause += clause
        rng.shuffle(clause)
        node["clauses"].insert(rng.randint(0, len(node["clauses"])), clause)
    return json.dumps(doc)


def test_odd_clause_shapes_get_one_answer_from_every_method(tmp_path):
    rng = random.Random(2025)
    path, out = tmp_path / "instance.json", tmp_path / "out.json"
    answers = set()
    for seed in SEEDS:
        doc = seeded_doc(seed)
        text = mutate_clauses(rng, doc)
        path.write_text(text)
        for command in COMMANDS:
            assert main([*command, "-i", str(path), "-o", str(out)]) in (0, 1, 2), (seed, command)
        solved = set()
        for method in ("direct", "depth", "compress"):
            code = main(["solve", "--method", method, "--witness", "-i", str(path), "-o", str(out)])
            assert code == 0, (seed, method)
            report = json.loads(out.read_text())
            solved.add((report["answer"], json.dumps(report["witness"], sort_keys=True)))
        # The witness is the correct query string, by full enumeration.
        bits, answer = enum_evaluate(parse_dag(text))
        witness = json.dumps({str(k): v for k, v in bits.items()}, sort_keys=True)
        assert solved == {(answer, witness)}, (seed, solved)
        answers.add(answer)
    assert answers == {0, 1}


def test_a_huge_proof_block_is_refused_before_the_arithmetization(tmp_path, capsys):
    # Laying out 10^20 coordinates used to end in an OverflowError; 10^6
    # took a second and 49 MB before the cap refused them.
    for proof_vars in (10**20, 10**6):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": [{"id": 1, "proof_vars": proof_vars}], "output": 1}))
        assert main(["arith", "-i", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {proof_vars + 1} variables exceed the cap of 16\n"


def shuffled_relabelled(rng, doc):
    """`doc`, as text, with its nodes declared in a shuffled order and given
    new ids that fall along a topological order, so that every edge runs
    from a larger id to a smaller one."""
    order = parse_dag(json.dumps(doc)).topo_order()
    new_ids = sorted(rng.sample(range(1, 10 * len(order)), len(order)), reverse=True)
    relabel = dict(zip(order, new_ids))
    nodes = [
        dict(node, id=relabel[node["id"]], inputs=[relabel[p] for p in node["inputs"]])
        for node in doc["nodes"]
    ]
    rng.shuffle(nodes)
    return json.dumps({"nodes": nodes, "output": relabel[doc["output"]]})


def test_out_of_order_documents_get_one_answer_from_every_method_and_backend(tmp_path, capsys):
    rng = random.Random(2026)
    path, out = tmp_path / "instance.json", tmp_path / "out.json"
    compared = refused = 0
    for seed in SEEDS:
        text = shuffled_relabelled(rng, seeded_doc(seed))
        path.write_text(text)
        g = parse_dag(text)
        # The output, a sink, has the smallest id.
        assert g.topo_order() != sorted(g.out_neighbors()), seed
        bits, answer = enum_evaluate(g)
        want = (answer, {str(k): v for k, v in bits.items()})
        for method in ("direct", "depth", "compress"):
            code = main(["solve", "--method", method, "--witness", "-i", str(path), "-o", str(out)])
            assert code == 0, (seed, method)
            report = json.loads(out.read_text())
            assert (report["answer"], report["witness"]) == want, (seed, method)
        gstar, _ = build_compressed(g, build_separator_tree(g))
        for method in ("depth", "compress"):
            argv = ["solve", "--method", method, "--witness", "--transcript", "-i", str(path)]
            reports = []
            for backend in (["eval"], ["brute", "--cap", "8"]):
                code = main([*argv, "--backend", *backend, "-o", str(out)])
                if backend[0] == "brute" and method == "compress" and len(gstar.nodes) > 8:
                    # Every node of G* is free in the first query.
                    assert code == 1, seed
                    assert "exceed the cap of 8" in capsys.readouterr().err, seed
                    refused += 1
                    break
                assert code == 0, (seed, method, backend)
                report = json.loads(out.read_text())
                assert (report["answer"], report["witness"]) == want, (seed, method, backend)
                del report["proof_queries"]
                report["transcript"] = [e for e in report["transcript"] if e["kind"] == "threshold"]
                reports.append(report)
            else:
                assert reports[0] == reports[1], (seed, method)
                compared += 1
    assert compared > 60 and refused > 0
