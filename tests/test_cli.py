import io
import json
import sys

import pytest

from querydag import GenerationError, decide_direct, levels, parse_dag, serialize_dag
from querydag.cli import gen_instance, main, run_bench

from conftest import enum_evaluate
from separator_reference import verify_separator_tree

CHAIN2_TEXT = serialize_dag(
    parse_dag(
        json.dumps(
            {
                "nodes": [
                    {"id": 1, "kind": "verifier", "inputs": [], "proof_vars": 1, "clauses": [[1]]},
                    {"id": 2, "kind": "verifier", "inputs": [1], "proof_vars": 1, "clauses": [[1], [2]]},
                ],
                "output": 2,
            }
        )
    )
)


def write_chain2(tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(CHAIN2_TEXT)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_star_shape():
    g = gen_instance("star", 4, seed=1)
    assert g.output == 4
    assert g.by_id[4].inputs == (1, 2, 3)
    assert all(g.by_id[i].inputs == () for i in (1, 2, 3))


def test_gen_chain_deterministic_and_round_trip():
    first = serialize_dag(gen_instance("chain", 2, seed=5))
    second = serialize_dag(gen_instance("chain", 2, seed=5))
    assert first == second
    assert serialize_dag(parse_dag(first)) == first


def test_gen_random_sep_respects_bound():
    from querydag import build_separator_tree

    for seed in range(10):
        g = gen_instance("random-sep", 8, seed, sep_bound=2)
        assert build_separator_tree(g).uniform_size <= 2


def test_gen_layered_has_bounded_depth():
    from querydag import build_separator_tree

    for n in (4, 8, 16):
        g = gen_instance("layered", n, seed=3)
        assert max(levels(g).values()) <= 2
        tree = build_separator_tree(g)
        assert tree.uniform_size == 1
        assert verify_separator_tree(g, tree)


def test_cli_gen_and_solve(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "chain", "--n", "2", "--seed", "1", "-o", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["solve", "--method", "compress", "-i", str(out), "-o", str(report)]) == 0
    doc = read_json(report)
    assert doc["answer"] in (0, 1)
    assert doc["queries"] == doc["budget"]


def test_cli_solve_chain2_fixture(tmp_path):
    inst = write_chain2(tmp_path)
    report = tmp_path / "report.json"
    assert main(["solve", "--method", "compress", "-i", inst, "-o", str(report)]) == 0
    doc = read_json(report)
    assert doc["answer"] == 1
    assert doc["queries"] == 6
    assert doc["W"] == "10"


def test_cli_solve_cyclic_exits_1(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    path.write_text(
        '{"nodes":[{"id":2,"kind":"verifier","inputs":[2],"proof_vars":1,"clauses":[[1]]}],"output":2}'
    )
    assert main(["solve", "--method", "compress", "-i", str(path)]) == 1
    assert "cycle" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    assert main(["solve", "--method", "bogus"]) == 2
    assert main([]) == 2


def test_cli_evaluate(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "trace.json"
    assert main(["evaluate", "-i", inst, "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["answer"] == 1
    assert doc["bits"] == {"1": 1, "2": 1}


def test_cli_evaluate_reports_topological_order_of_unordered_document(tmp_path):
    # Listed 3, 1, 4, 2; sources 2 and 4 come first by ascending id, then 1.
    text = json.dumps(
        {
            "nodes": [
                {"id": 3, "inputs": [1, 2], "proof_vars": 0, "clauses": [[-1], [-2]]},
                {"id": 1, "inputs": [4], "proof_vars": 1, "clauses": [[-1]]},
                {"id": 4, "inputs": [], "proof_vars": 1, "clauses": [[1]]},
                {"id": 2, "inputs": [], "proof_vars": 1, "clauses": [[1], [-1]]},
            ],
            "output": 3,
        }
    )
    inst = tmp_path / "unordered.json"
    inst.write_text(text)
    out = tmp_path / "trace.json"
    assert main(["evaluate", "-i", str(inst), "-o", str(out)]) == 0
    doc = read_json(out)
    g = parse_dag(text)
    assert doc["order"] == g.topo_order() == [2, 4, 1, 3]
    bits, answer = enum_evaluate(g)
    assert doc["bits"] == {str(k): v for k, v in bits.items()} == {
        "1": 0, "2": 0, "3": 1, "4": 1
    }
    assert doc["answer"] == answer == 1


def test_cli_brute_transcript_follows_topological_order_of_unordered_document(tmp_path):
    # Declared 2, 1.  The brute backend tries the unpinned strings in
    # ascending id order, whatever the declaration order, and scores each
    # in one pass of forced bits, in topological order: where a string
    # looks up both nodes, node 1 comes before node 2.  So the transcript is
    # that of the same graph declared 1, 2.  Proof entries are node:inputs,
    # threshold entries |.
    argv = ["solve", "--method", "depth", "--witness", "--transcript", "--backend", "brute"]
    docs = []
    for nodes in ([{"id": 2, "inputs": [1]}, {"id": 1}], [{"id": 1}, {"id": 2, "inputs": [1]}]):
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        inst.write_text(json.dumps({"nodes": nodes, "output": 2}))
        assert main([*argv, "-i", str(inst), "-o", str(out)]) == 0
        docs.append(read_json(out))
    doc, in_order = docs
    assert doc == in_order
    entries = [
        f"{e['node']}:{e['inputs']}" if e["kind"] == "proof" else "|" for e in doc["transcript"]
    ]
    assert " ".join(entries) == (
        "2:0 1: | 2:0 1: 1: 2:1 | 2:0 1: 1: 2:1 | 2:0 1: 1: 2:1 | 2:0 1: 2:1 | 1: 1: 2:1 | 1: 2:1 | 1: 2:1"
    )
    assert doc["proof_queries"] == 24
    assert doc["witness"] == {"1": 1, "2": 1}


def test_cli_septree(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "tree.json"
    assert main(["septree", "-i", inst, "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["uniform_size"] == 1
    assert len(doc["supervertices"]) == 2


def test_cli_septree_depth_bounded(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "tree.json"
    assert main(["septree", "-i", inst, "--depth", "2", "--size", "1", "-o", str(out)]) == 0
    assert read_json(out)["uniform_size"] == 1
    # An infeasible request is a diagnosed failure, not a crash.
    path4 = tmp_path / "p4.json"
    path4.write_text(
        serialize_dag(
            parse_dag(
                json.dumps(
                    {
                        "nodes": [
                            {"id": i, "kind": "verifier", "inputs": [i - 1] if i > 1 else [], "proof_vars": 1, "clauses": [[1]]}
                            for i in range(1, 5)
                        ],
                        "output": 4,
                    }
                )
            )
        )
    )
    assert main(["septree", "-i", str(path4), "--depth", "1", "--size", "1"]) == 1


def test_cli_septree_size_above_vertex_count_exits_1(tmp_path, capsys):
    # Slots beyond |V| could only hold dummies; the bound is refused before
    # any padding is allocated.
    path = tmp_path / "chain3.json"
    path.write_text(serialize_dag(gen_instance("chain", 3, 0)))
    assert main(["septree", "-i", str(path), "--depth", "2", "--size", "4"]) == 1
    err = capsys.readouterr().err
    assert "size bound 4" in err and "3 vertices" in err
    assert main(["septree", "-i", str(path), "--depth", "2", "--size", "3"]) == 0


def test_cli_septree_lone_bound_is_usage_error(tmp_path, capsys):
    # A depth-bounded tree needs both bounds; one alone is refused by the
    # argument parser, like any malformed command line.
    inst = write_chain2(tmp_path)
    for flags in (["--depth", "2"], ["--size", "1"]):
        assert main(["septree", "-i", inst, *flags]) == 2
        err = capsys.readouterr().err
        assert "--depth and --size" in err and "Traceback" not in err


def test_cli_septree_nonpositive_bound_is_usage_error(tmp_path, capsys):
    inst = write_chain2(tmp_path)
    for flags in (["--depth", "0", "--size", "1"], ["--depth", "2", "--size", "0"]):
        assert main(["septree", "-i", inst, *flags]) == 2
        err = capsys.readouterr().err
        assert "expected a positive integer, got '0'" in err and "Traceback" not in err


def test_cli_compress(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "gstar.json"
    assert main(["compress", "-i", inst, "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["expanded_size"] == 7
    assert doc["weight_report"]["total"] == "10"
    assert len(doc["compressed"]["nodes"]) == 4


def test_cli_arith(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "arith.json"
    assert main(["arith", "-i", inst, "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["max"] == "4/1"
    assert doc["query_string"] == {"1": 1, "2": 1}
    assert doc["audit"]["queries_used"] <= doc["audit"]["B"] + 1


def test_cli_arith_dump_circuit(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "arith.json"
    assert main(["arith", "-i", inst, "-o", str(out)]) == 0
    plain = read_json(out)
    assert main(["arith", "--dump-circuit", "-i", inst, "-o", str(out)]) == 0
    doc = read_json(out)
    circuit = doc.pop("circuit")
    assert doc == plain
    gates = circuit["gates"]
    assert len(gates) == doc["circuit_size"]
    assert circuit["output"] == len(gates) - 1
    assert [gate["id"] for gate in gates] == list(range(len(gates)))
    for gate in gates:
        # Children precede their parents; leaves carry a variable or a value.
        assert all(child < gate["id"] for child in gate["children"])
        if gate["kind"] == "var":
            assert gate["children"] == [] and 0 <= gate["var"] < doc["var_count"]
        elif gate["kind"] == "const":
            assert gate["children"] == [] and "var" not in gate
        else:
            assert gate["kind"] in ("sum", "prod") and len(gate["children"]) >= 2
            assert "var" not in gate and "value" not in gate
    values = {gate["value"] for gate in gates if gate["kind"] == "const"}
    assert {"1/2", "1/1", "-1/1"} <= values
    # Coordinate 3 pads v1's block to v2's two local variables: no gate reads
    # it, yet it counts in var_count.
    assert sorted(g["var"] for g in gates if g["kind"] == "var") == [0, 1, 2, 4]


def test_cli_arith_on_an_empty_clause(tmp_path):
    # An empty clause makes the node unsatisfiable: p is w/2 at x = 0 and 0
    # at x = 1, whatever the proof and auxiliary bits.
    inst = tmp_path / "empty.json"
    inst.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": 1, "kind": "verifier", "inputs": [], "proof_vars": 1, "clauses": [[1], []]}
                ],
                "output": 1,
            }
        )
    )
    out = tmp_path / "arith.json"
    assert main(["arith", "-i", str(inst), "-o", str(out)]) == 0
    doc = read_json(out)
    assert doc["var_count"] == 3  # x, the proof bit and the auxiliary
    assert doc["max"] == "1/2" and doc["max_scaled"] == "1"
    assert doc["witness_vertex"] == "000"
    assert doc["query_string"] == {"1": 0}
    assert doc["audit"]["B"] == 1
    assert doc["audit"]["queries_used"] <= doc["audit"]["budget"] == 2


def test_cli_arith_default_cap_refuses_more_than_16_variables(tmp_path, capsys):
    # One circuit evaluation per point makes 2^19 points minutes of work;
    # the default cap of 16 refuses the instance before evaluating any.
    inst = tmp_path / "chain6.json"
    inst.write_text(serialize_dag(gen_instance("chain", 6, 2)))
    rc = main(["arith", "-i", str(inst)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: 19 variables exceed the cap of 16\n"


@pytest.mark.parametrize("command", [["solve", "--backend", "brute"], ["arith"]])
@pytest.mark.parametrize("cap", ["-1", "a"])
def test_negative_cap_is_usage_error(tmp_path, capsys, command, cap):
    # A negative cap would refuse every solve with exit 1.
    inst = write_chain2(tmp_path)
    assert main(command + ["--cap", cap, "-i", inst]) == 2
    err = capsys.readouterr().err
    assert "argument --cap" in err
    assert "Traceback" not in err


def test_zero_cap_is_a_valid_argument(tmp_path, capsys):
    # Cap 0 refuses the arithmetization of chain2: exit 1, not a usage error.
    assert main(["arith", "--cap", "0", "-i", write_chain2(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: 5 variables exceed the cap of 0\n"


def test_cli_solve_prints_a_transcript_only_when_asked(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "r.json"
    for method in ("compress", "depth", "direct"):
        command = ["solve", "--method", method, "--witness", "-i", inst, "-o", str(out)]
        assert main(command) == 0
        plain = read_json(out)
        assert "transcript" not in plain
        assert main(command + ["--transcript"]) == 0
        full = read_json(out)
        assert full.pop("transcript")
        assert full == plain


def test_cli_solve_witness_and_brute_backend(tmp_path):
    inst = write_chain2(tmp_path)
    out = tmp_path / "r.json"
    assert main(
        ["solve", "--method", "depth", "--witness", "--backend", "brute", "-i", inst, "-o", str(out)]
    ) == 0
    assert read_json(out)["witness"] == {"1": 1, "2": 1}


def test_bench_rows_and_query_growth(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(
        [
            "bench", "--family", "star", "--sizes", "4,8,16",
            "--seed", "1", "--method", "depth", "-o", str(out),
        ]
    ) == 0
    rows = read_json(out)["rows"]
    assert [row["n"] for row in rows] == [4, 8, 16]
    queries = [row["queries"] for row in rows]
    # Roughly logarithmic growth for fixed separator size 1.
    assert queries[0] <= queries[1] <= queries[2] <= queries[0] + 8
    assert all(row["s"] == 1 for row in rows)
    table = capsys.readouterr().err
    assert "family" in table and "queries" in table


def test_run_bench_compress_within_paper_style_budget():
    import math

    rows = run_bench(
        family="chain", sizes=(4, 8), sep_bound=2, repetitions=1, seed=0, method="compress"
    )
    for row in rows:
        bound = 4 * (row["s"] * row["D"] + math.log2(row["n"])) + 8
        assert row["queries"] <= bound


def test_run_bench_direct_counts_proof_calls():
    rows = run_bench(
        family="layered", sizes=(3, 6), sep_bound=2, repetitions=2, seed=4, method="direct"
    )
    assert [(row["n"], row["rep"], row["seed"]) for row in rows] == [
        (3, 0, 7), (3, 1, 1007), (6, 0, 10), (6, 1, 1010)
    ]
    for row in rows:
        report = decide_direct(gen_instance("layered", row["n"], row["seed"], 2))
        # One proof call per node, and no threshold budget.
        assert row["queries"] == report.stats.proof_queries == row["n"]
        assert row["budget"] is None and row["W"] is None
        assert (row["method"], row["answer"]) == ("direct", report.answer)


def test_solve_direct_on_deep_formula_has_no_recursion_error(tmp_path, capsys):
    # 1,500 clauses (p_i or q_i) over 3,000 proof variables: the DPLL
    # branches once per clause, deeper than the recursion limit.
    clauses = [[2 * i - 1, 2 * i] for i in range(1, 1501)]
    doc = {
        "nodes": [{"id": 1, "inputs": [], "proof_vars": 3000, "clauses": clauses}],
        "output": 1,
    }
    inst = tmp_path / "deep.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["solve", "--method", "direct", "-i", str(inst), "-o", str(out)]) == 0
    assert read_json(out)["answer"] == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["solve", "--method", m, "--backend", b], id=f"{m}-{b}")
        for m in ("compress", "depth", "direct")
        for b in ("eval", "brute")
    ]
    + [pytest.param([c], id=c) for c in ("compress", "septree", "evaluate", "arith")],
)
@pytest.mark.parametrize("conductor", [1, 2])
def test_declared_conductor_fails_cleanly_everywhere(tmp_path, capsys, command, conductor):
    nodes = [
        {"id": 1, "kind": "verifier", "inputs": [], "proof_vars": 1, "clauses": [[1]]},
        {"id": 2, "kind": "verifier", "inputs": [1], "proof_vars": 1, "clauses": [[1], [2]]},
    ]
    nodes[conductor - 1] = {"id": conductor, "kind": "conductor", "inputs": nodes[conductor - 1]["inputs"]}
    inst = tmp_path / "conductor.json"
    inst.write_text(json.dumps({"nodes": nodes, "output": 2}))
    rc = main(command + ["-i", str(inst)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"node {conductor}: unknown kind 'conductor'" in err
    assert "Traceback" not in err


def test_deeply_nested_document_exits_1(tmp_path, capsys):
    inst = tmp_path / "deep.json"
    inst.write_text("[" * 100_000)
    assert main(["evaluate", "-i", str(inst)]) == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_undecodable_instance_exits_1(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "bom.json"
    inst.write_bytes(b"\xff\xfe")
    assert main(["evaluate", "-i", str(inst)]) == 1
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["evaluate", "-i", "-"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 2
    assert "error: instance is not text" in err
    assert "Traceback" not in err


def test_missing_instance_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "-i", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(missing) in lines[0]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--family", "chain", "--n", "{}"], "--n"),
        (["gen", "--family", "random-sep", "--n", "4", "--sep-bound", "{}"], "--sep-bound"),
        (["bench", "--family", "chain", "--sizes", "3,{}"], "--sizes"),
        (["bench", "--family", "random-sep", "--sizes", "4", "--sep-bound", "{}"], "--sep-bound"),
    ],
)
def test_non_positive_size_or_bound_is_usage_error(argv, flag, value, capsys):
    # Before any generation: --sep-bound 0 would otherwise run 200 separator
    # searches and then fail.
    assert main([arg.format(value) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err
    assert "Traceback" not in captured.err


def test_gen_instance_keeps_its_own_checks():
    # The CLI refuses these values before generating; API callers reach the
    # generator's checks.
    for family, n, sep_bound in (("tree", 4, 2), ("chain", 0, 2), ("random-sep", 4, 0)):
        with pytest.raises(GenerationError):
            gen_instance(family, n, 0, sep_bound)


def test_bench_non_integer_sizes_is_usage_error(capsys):
    assert main(["bench", "--family", "chain", "--sizes", "a"]) == 2
    err = capsys.readouterr().err
    assert "argument --sizes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reps", ["0", "-1", "a"])
def test_bench_non_positive_reps_is_usage_error(reps, capsys):
    # Zero repetitions would print an empty table and exit 0.
    assert main(["bench", "--family", "chain", "--sizes", "3", "--reps", reps]) == 2
    err = capsys.readouterr().err
    assert "argument --reps" in err
    assert "Traceback" not in err


def test_outputs_integers_past_the_digit_limit(tmp_path, capsys):
    # rho weights on a 1,300-node chain are (2 * 1300) ** depth, so 2T and W
    # run to more than the 4,300 digits str() of an int allows.
    inst = tmp_path / "chain1300.json"
    inst.write_text(serialize_dag(gen_instance("chain", 1300, 0)))
    out = tmp_path / "report.json"
    assert main(["solve", "--method", "depth", "-i", str(inst), "-o", str(out)]) == 0
    report = read_json(out)
    assert len(report["T_scaled"]) > 4300
    rows = tmp_path / "bench.json"
    argv = ["bench", "--family", "chain", "--sizes", "1300", "--method", "depth"]
    assert main(argv + ["-o", str(rows)]) == 0
    assert read_json(rows)["rows"][0]["W"] == report["W"]
    assert "Traceback" not in capsys.readouterr().err


def test_number_past_the_digit_limit_exits_1(tmp_path, capsys):
    inst = tmp_path / "big.json"
    inst.write_text('{"nodes": [], "output": 1' + "0" * 5000 + "}")
    assert main(["evaluate", "-i", str(inst)]) == 1
    err = capsys.readouterr().err
    assert "error: malformed document" in err
    assert "Traceback" not in err
