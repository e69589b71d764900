import json
import random

import pytest

from budgetfd import Universe, check_proof, entailment, infomodel, parse_atom
from budgetfd.cli import _json_text, main
from budgetfd.proofs import proof_from_json_dict

FIG5 = """\
attrs: a,b,c
# prices and pad relations
{} |3 {a}
{} |5 {b}
{} |4 {c}
{a,c} |0 {b}
{b,c} |0 {a}
"""

CHAIN = """\
attrs: a,b,c
{a} |1 {b}
{b} |2 {c}
"""

FORMULA_ONE = """\
attrs: a,b
{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})
"""


@pytest.fixture
def fig5_file(tmp_path):
    path = tmp_path / "fig5.txt"
    path.write_text(FIG5)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN)
    return str(path)


def test_prove_positive_emits_checkable_proof(chain_file, tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    code = main(
        ["prove", "--premises", chain_file, "--goal", "{a} |3 {c}",
         "--emit-proof", str(proof_path)]
    )
    assert code == 0
    assert "proved" in capsys.readouterr().out
    u = Universe(["a", "b", "c"])
    proof = proof_from_json_dict(json.loads(proof_path.read_text()), u)
    premises = [parse_atom("{a} |1 {b}", u), parse_atom("{b} |2 {c}", u)]
    assert check_proof(proof, premises)
    assert str(proof.concludes) == "{a} |3 {c}"


def test_prove_negative_exit_code(chain_file, tmp_path, capsys):
    counter = tmp_path / "cut.json"
    code = main(
        ["--json", "prove", "--premises", chain_file, "--goal", "{a} |2 {c}",
         "--emit-counter", str(counter)]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not_provable"
    assert payload["minimum"] == "3"
    cert = json.loads(counter.read_text())
    assert cert["goal"] == "{a} |2 {c}"


def test_min_budget_prints_exact_value(fig5_file, capsys):
    code = main(["min-budget", "--premises", fig5_file, "--from", "{}", "--to", "{b}"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "5"


def test_min_budget_rational_rendering(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("attrs: a,b\n{a} |9/2 {b}\n")
    code = main(["min-budget", "--premises", str(path), "--from", "{a}", "--to", "{b}"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "9/2"


def test_min_budget_unreachable(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("attrs: a,b\n{a} |1 {a}\n")
    code = main(["min-budget", "--premises", str(path), "--from", "{}", "--to", "{b}"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "unreachable"


def test_sat_and_valid(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("attrs: a,b\n{a} |4 {b} & !({b} |4 {a})\n")
    assert main(["sat", str(f)]) == 0

    g = tmp_path / "g.txt"
    g.write_text("attrs: a,b\n!({a} |0 {a})\n")
    assert main(["sat", str(g)]) == 1

    h = tmp_path / "h.txt"
    h.write_text("attrs: a,b,c\n{a} |1 {b} => {a,c} |1 {b,c}\n")
    assert main(["valid", str(h)]) == 0

    capsys.readouterr()


def test_valid_invalid_emits_counterexample(tmp_path, capsys):
    f = tmp_path / "formula1.txt"
    f.write_text(FORMULA_ONE)
    counter = tmp_path / "counter.json"
    code = main(["--json", "valid", str(f), "--emit-counter", str(counter)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "invalid"
    emitted = json.loads(counter.read_text())
    assert emitted["assignment"]["{a} |1 {b}"] is True
    assert emitted["assignment"]["{b} |4 {a}"] is False
    assert emitted["hypergraph"]["vertices"] == ["a", "b"]


def test_json_output_is_deterministic(tmp_path, capsys):
    f = tmp_path / "formula1.txt"
    f.write_text(FORMULA_ONE)
    assert main(["--json", "valid", str(f)]) == 1
    first = capsys.readouterr().out
    assert main(["--json", "valid", str(f)]) == 1
    second = capsys.readouterr().out
    assert first == second


def test_counterexample_package(tmp_path, capsys):
    f = tmp_path / "formula1.txt"
    f.write_text(FORMULA_ONE)
    code = main(["--json", "counterexample", "--formula", str(f)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    pkg = payload["package"]
    assert {entry["atom"] for entry in pkg["true_atoms"]} == {"{a} |1 {b}", "{b} |5 {a}"}
    assert len(pkg["false_atoms"]) == 3
    for ref in pkg["false_atoms"]:
        for witness in ref["witnesses"]:
            assert witness["checks"]["equation_violations"] == 0
            assert witness["checks"]["root_flipped"] is True


def test_counterexample_on_valid_formula(tmp_path, capsys):
    f = tmp_path / "aug.txt"
    f.write_text("attrs: a,b,c\n{a} |1 {b} => {a,c} |1 {b,c}\n")
    assert main(["counterexample", "--formula", str(f)]) == 0
    assert "valid" in capsys.readouterr().out


def test_counterexample_materialize(tmp_path, capsys):
    f = tmp_path / "fig5imp.txt"
    f.write_text("attrs: a,b,c\n{a} |4 {b} => {} |4 {b}\n")
    code = main(["--json", "counterexample", "--formula", str(f), "--materialize"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    linear = payload["package"]["linear"]
    assert linear["atom_evals"]["{a} |4 {b}"] is True
    assert linear["atom_evals"]["{} |4 {b}"] is False
    assert "model" in linear  # small dimension: explicit rows included


def test_check_model(tmp_path, capsys, fig5_model):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(fig5_model.to_json_dict()))
    formula_path = tmp_path / "f.txt"
    formula_path.write_text("{a} |4 {b} => {} |4 {b}\n")
    code = main(["check-model", "--model", str(model_path), "--formula", str(formula_path)])
    assert code == 1
    formula_path.write_text("{a} |4 {b}\n")
    code = main(["check-model", "--model", str(model_path), "--formula", str(formula_path)])
    assert code == 0
    capsys.readouterr()


def test_check_proof_roundtrip(chain_file, tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--premises", chain_file, "--goal", "{a} |3 {c}",
                 "--emit-proof", str(proof_path)]) == 0
    assert main(["check-proof", "--premises", chain_file, "--proof", str(proof_path)]) == 0
    # a proof of a conclusion whose premises are not assumed fails
    weaker = tmp_path / "weaker.txt"
    weaker.write_text("attrs: a,b,c\n{a} |1 {b}\n")
    assert main(["check-proof", "--premises", str(weaker), "--proof", str(proof_path)]) == 1
    capsys.readouterr()


def test_mine_csv(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,c\n0,0,0\n1,0,1\n0,1,1\n1,1,0\n")
    costs_path = tmp_path / "costs.txt"
    costs_path.write_text("a=3\nb=5\nc=4\n")
    code = main(["mine", "--csv", str(csv_path), "--costs", str(costs_path),
                 "--cap", "5", "--max-lhs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{a} |4 {b}" in out
    assert "{} |5 {b}" in out


def test_universe_required(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("{a} |1 {b}\n")
    assert main(["prove", "--premises", str(path), "--goal", "{a} |1 {b}"]) == 2
    assert "universe" in capsys.readouterr().err


def test_attrs_flag_and_header_mismatch(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("attrs: a,b\n{a} |1 {b}\n")
    code = main(["--attrs", "a,b,c", "prove", "--premises", str(path),
                 "--goal", "{a} |1 {b}"])
    assert code == 2
    assert "disagrees" in capsys.readouterr().err


def test_attrs_flag_alone(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("{a} |1 {b}\n")
    code = main(["--attrs", "a,b", "prove", "--premises", str(path),
                 "--goal", "{a} |1 {b}"])
    assert code == 0
    capsys.readouterr()


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("attrs: a,b\n{a} | {b}\n")
    assert main(["prove", "--premises", str(path), "--goal", "{a} |1 {b}"]) == 2
    capsys.readouterr()


def test_cap_exceeded_exit_code(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("attrs: a,b\n{a} |1 {b} & {b} |2 {a} & {a} |3 {b}\n")
    assert main(["--cap-atoms", "2", "sat", str(f)]) == 3
    capsys.readouterr()


def test_state_cap_exceeded_exit_code(fig5_file, capsys, monkeypatch):
    # {} |4 {b}: the search finds {}, {a}, {b} and {c} before it settles {a}
    monkeypatch.setattr(entailment, "STATE_CAP", 2)
    assert main(["--json", "prove", "--premises", fig5_file, "--goal", "{} |4 {b}"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "cap" in out.err


def _fig5_tables(tmp_path, fig5_model):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,c\n0,0,0\n1,0,1\n0,1,1\n1,1,0\n")
    costs_path = tmp_path / "costs.txt"
    costs_path.write_text("a=3\nb=5\nc=4\n")
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(fig5_model.to_json_dict()))
    formula_path = tmp_path / "f.txt"
    formula_path.write_text("{a} |4 {b} => {} |4 {b}\n")
    mine = ["mine", "--csv", str(csv_path), "--costs", str(costs_path), "--cap", "5"]
    check = ["check-model", "--model", str(model_path), "--formula", str(formula_path)]
    return mine, check


def test_affordable_attr_cap_exceeded_exit_code(tmp_path, fig5_model, capsys, monkeypatch):
    mine, check = _fig5_tables(tmp_path, fig5_model)
    monkeypatch.setattr(infomodel, "AFFORDABLE_ATTR_CAP", 1)
    for argv in (mine, check):
        assert main(argv) == 3, argv
        assert "exceeds the cap 1" in capsys.readouterr().err, argv


def test_model_state_cap_exceeded_exit_code(tmp_path, fig5_model, capsys, monkeypatch):
    mine, check = _fig5_tables(tmp_path, fig5_model)
    monkeypatch.setattr(entailment, "STATE_CAP", 1)
    for argv in (mine, check):
        assert main(["--json", *argv]) == 3, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert "cap of 1 states" in out.err


def test_consecutive_calls_are_independent(tmp_path, fig5_model, capsys):
    mine, check = _fig5_tables(tmp_path, fig5_model)
    assert main(["--json", *mine, "--max-lhs", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dependencies": ["{} |3 {a}", "{} |5 {b}", "{} |4 {c}"]}
    assert main(check) == 1
    assert capsys.readouterr().out == "fails\n"
    # --json and --max-lhs 0 are gone again: plain text, left sides up to 2
    assert main(mine) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "{a} |4 {b}" in lines and "{} |5 {b}" in lines


def test_usage_error_exit_code(fig5_file, tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    # the edge cap is gone: the closed-set search has its own state cap
    assert main(["--cap-edges", "5", "prove", "--premises", fig5_file,
                 "--goal", "{} |4 {b}"]) == 2
    capsys.readouterr()

    missing = str(tmp_path / "missing")
    formula = tmp_path / "f.txt"
    formula.write_text("attrs: a,b,c\n{a} |4 {b}\n")
    costs = tmp_path / "costs.txt"
    costs.write_text("a=1\n")
    data = tmp_path / "data.csv"
    data.write_text("a\n0\n")
    no_tuples = tmp_path / "model.json"
    no_tuples.write_text(json.dumps({"attributes": [{"name": "a", "cost": "1"}]}))
    no_concludes = tmp_path / "proof.json"
    no_concludes.write_text(json.dumps({"rule": "Premise"}))
    attribute = {"name": "a", "cost": "1"}
    int_tuples = tmp_path / "int-tuples.json"
    int_tuples.write_text(json.dumps({"attributes": [attribute], "tuples": 5}))
    int_attributes = tmp_path / "int-attributes.json"
    int_attributes.write_text(json.dumps({"attributes": 5, "tuples": [["0"]]}))
    int_concludes = tmp_path / "int-concludes.json"
    int_concludes.write_text(json.dumps({"rule": "Premise", "concludes": 5}))
    int_add = tmp_path / "int-add.json"
    int_add.write_text(json.dumps({
        "rule": "Aug", "add": 7, "concludes": "{a} |4 {b}",
        "sub": {"rule": "Premise", "concludes": "{a} |4 {b}"},
    }))
    # --depth below 1 would check no path, and a negative cap or left-side
    # size bounds nothing; --sample and --seed are gone
    mine = ["mine", "--csv", str(data), "--costs", str(costs)]
    for argv in (
        ["--depth", "0", "counterexample", "--formula", str(formula)],
        ["--depth", "-2", "counterexample", "--formula", str(formula)],
        ["--seed", "1", "counterexample", "--formula", str(formula)],
        ["counterexample", "--formula", str(formula), "--sample", "5"],
        ["--cap-atoms", "-1", "sat", str(formula)],
        [*mine, "--cap", "1", "--max-lhs", "-1"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv

    for argv in (
        ["check-model", "--model", missing, "--formula", str(formula)],
        ["check-proof", "--premises", fig5_file, "--proof", missing],
        ["mine", "--csv", missing, "--costs", str(costs), "--cap", "1"],
        ["mine", "--csv", str(data), "--costs", missing, "--cap", "1"],
        ["check-model", "--model", str(no_tuples), "--formula", str(formula)],
        ["check-proof", "--premises", fig5_file, "--proof", str(no_concludes)],
        ["check-model", "--model", str(int_tuples), "--formula", str(formula)],
        ["check-model", "--model", str(int_attributes), "--formula", str(formula)],
        ["check-proof", "--premises", fig5_file, "--proof", str(int_concludes)],
        ["check-proof", "--premises", fig5_file, "--proof", str(int_add)],
        [*mine, "--cap", "1/0"],
        [*mine, "--cap", "-1"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_prove_positive_builds_hypergraph_once(chain_file, capsys, monkeypatch):
    built = []
    build = entailment.canonical_hypergraph
    monkeypatch.setattr(entailment, "canonical_hypergraph",
                        lambda *args: built.append(args) or build(*args))
    assert main(["prove", "--premises", chain_file, "--goal", "{a} |3 {c}"]) == 0
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize("goal, message", [
    ("{a} |\u00b2 {b}", "unexpected character '\u00b2' (at position 5)"),
    ("{a} |1/00 {b}", "bad budget literal '1/00'"),
])
def test_bad_goal_budget_is_a_located_usage_error(chain_file, capsys, goal, message):
    assert main(["prove", "--premises", chain_file, "--goal", goal]) == 2
    err = capsys.readouterr().err
    assert message in err and "(at position" in err


def test_prove_negative_builds_hypergraph_once(chain_file, capsys, monkeypatch):
    built = []
    build = entailment.canonical_hypergraph
    monkeypatch.setattr(entailment, "canonical_hypergraph",
                        lambda *args: built.append(args) or build(*args))
    assert main(["prove", "--premises", chain_file, "--goal", "{a} |2 {c}"]) == 1
    assert len(built) == 1
    capsys.readouterr()


_TEXT_PIECES = ["a", "Z", " ", "\"", "\\", "/", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f",
                "\x7f", "é", "ß", "\u2028", "\u00a0", "€", "中", "😀", "{a} |1/2 {b}", "e:3", ""]


def _random_text(rng):
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 4)))


def _random_json(rng, depth):
    """A nested payload of the types the CLI writes, with awkward leaves."""
    shape = rng.randrange(9 if depth else 6)
    if shape == 0:
        return _random_text(rng)
    if shape == 1:
        return rng.choice([0, 1, -1, 2**63, -(2**70), 10**30, rng.randint(-999, 999)])
    if shape == 2:
        return rng.choice([True, False])
    if shape == 3:
        return None
    if shape in (4, 5):
        return rng.choice([{}, [], ()])
    if shape == 6:
        return {_random_text(rng): _random_json(rng, depth - 1) for _ in range(rng.randint(1, 4))}
    items = [_random_json(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    return tuple(items) if shape == 7 else items


def test_json_writer_matches_json_dumps():
    rng = random.Random(71)
    for _ in range(2000):
        payload = _random_json(rng, rng.randint(0, 5))
        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    mixed = {"b": [True, 1, False, 0, None], "a": {"": [], "x": {}}, "é": ("\u2028",)}
    assert _json_text(mixed) == json.dumps(mixed, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [1.5, {1: "a"}, {"a": {None: 1}}, [set()], b"x", ("a", object())])
def test_json_writer_refuses_other_types(bad):
    with pytest.raises(TypeError):
        _json_text(bad)
