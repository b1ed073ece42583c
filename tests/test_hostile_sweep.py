"""A seeded sweep of hostile instance documents through every `qw`
subcommand, in process (cli.main).

Each document is a small generated instance, mutated the way a careless or
hostile writer might: cut short, given stray bytes, a field of the wrong
type or of an extreme value, a dangling or repeated input, a cycle, a
literal out of range, a huge proof block.  Every run must exit 0, 1
(QueryDagError) or 2 (usage error) and raise nothing: no traceback, no
RecursionError, no MemoryError.  The argument lists include some that the
parser must refuse.  Only random.Random(seed) drives it.
"""

from __future__ import annotations

import json
import random

from querydag import serialize_dag
from querydag.cli import gen_instance, main

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
        family = ("chain", "star", "layered", "random-sep")[seed % 4]
        doc = json.loads(serialize_dag(gen_instance(family, 2 + seed % 4, seed)))
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


def test_a_huge_proof_block_is_refused_before_the_arithmetization(tmp_path, capsys):
    # Laying out 10^20 coordinates used to end in an OverflowError; 10^6
    # took a second and 49 MB before the cap refused them.
    for proof_vars in (10**20, 10**6):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": [{"id": 1, "proof_vars": proof_vars}], "output": 1}))
        assert main(["arith", "-i", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {proof_vars + 1} variables exceed the cap of 16\n"
