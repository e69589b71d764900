"""Checks of each operation's output against the references in ``refs.py``.

A check returns None when the output is right and a one-line reason when
it is not.  Checks never compare with stored output of earlier runs: every
claim is re-derived from the operation's structured input.  References are
computed lazily and kept per operation, so repeated rounds pay for them once.
"""

from __future__ import annotations

import json
from fractions import Fraction

import refs

YES, NO = 0, 1


class CheckError(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def check(op, code: int, out: str, cache: dict) -> str | None:
    """Verify one operation's exit code and ``--json`` output."""
    try:
        payload = json.loads(out)
        CHECKS[op.kind](op.spec, code, payload, cache)
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _walk(names, proof, premises) -> tuple:
    try:
        return refs.walk_proof(names, proof, premises)
    except ValueError as exc:
        raise CheckError(f"proof rejected: {exc}") from None


# -- prove and min-budget -------------------------------------------------------

def check_prove(spec, code, payload, cache) -> None:
    names, edges, goal = spec["names"], spec["premises"], spec["goal"]
    minimum = spec["minimum"]
    lhs, rhs, budget = goal
    entailed = minimum is not None and minimum <= budget
    require(payload["goal"] == refs.atom_text(names, goal), "goal echoed wrongly")
    require(payload["minimum"] == refs.min_budget_text(minimum),
            f"minimum {payload['minimum']} != reference {refs.min_budget_text(minimum)}")
    if entailed:
        require(code == YES and payload["verdict"] == "proved", "entailed goal not proved")
        concl = _walk(names, payload["proof"], edges)
        require(concl == goal, "proof concludes another atom")
        witness = payload["witness_edges"]
        require(len(set(witness)) == len(witness), "witness repeats an edge")
        require(sum((edges[e][2] for e in witness), Fraction(0)) == minimum,
                "witness edges do not weigh the minimum")
        require(rhs & ~refs.closure(edges, lhs, witness) == 0,
                "witness edges do not close the left side over the right side")
        return
    require(code == NO and payload["verdict"] == "not_provable", "non-entailed goal proved")
    cert = payload["certificate"]
    chosen = cert["edges"]
    spent = sum((edges[e][2] for e in set(chosen)), Fraction(0))
    require(spent <= budget, "certificate edges exceed the budget")
    require(Fraction(cert["spent"]) == spent, "certificate misstates its spending")
    left = refs.closure(edges, lhs, chosen)
    require(refs.mask_of(names, cert["cut"]["left"]) == left, "certificate cut is not the closure")
    require(refs.mask_of(names, cert["cut"]["right"]) == ((1 << len(names)) - 1) & ~left,
            "certificate cut sides do not partition the vertices")
    require(rhs & ~left != 0, "certificate closure covers the right side")


def check_min_budget(spec, code, payload, cache) -> None:
    names, edges, minimum = spec["names"], spec["premises"], spec["minimum"]
    require(payload["minimum"] == refs.min_budget_text(minimum),
            f"minimum {payload['minimum']} != reference {refs.min_budget_text(minimum)}")
    require(code == (NO if minimum is None else YES), "exit code disagrees with the minimum")
    if minimum is None:
        left = refs.closure(edges, spec["source"])
        require(refs.mask_of(names, payload["certificate"]["cut"]["left"]) == left,
                "unreachability cut is not the closure of every edge")
        require(spec["target"] & ~left != 0, "unreachability cut covers the target")


# -- sat and valid ---------------------------------------------------------------

def hypergraph_edges(names, data) -> list:
    require(data["vertices"] == names, "hypergraph over another vertex list")
    return [(refs.mask_of(names, e["in"]), refs.mask_of(names, e["out"]), Fraction(e["w"]))
            for e in data["edges"]]


def assignment_of(names, data, f) -> dict:
    assignment = {refs.parse_atom(names, text): value for text, value in data.items()}
    require(set(assignment) == set(refs.formula_atoms(f)),
            "assignment does not cover exactly the formula's atoms")
    return assignment


def check_sat(spec, code, payload, cache) -> None:
    names, f = spec["names"], spec["formula"]
    if payload["verdict"] == "sat":
        require(code == YES, "exit code disagrees with the verdict")
        assignment = assignment_of(names, payload["assignment"], f)
        require(refs.evaluate(f, assignment.__getitem__), "assignment falsifies the formula")
        edges = hypergraph_edges(names, payload["hypergraph"])
        require(refs.realizes(edges, assignment), "hypergraph does not realize the assignment")
        return
    require(payload["verdict"] == "unsat" and code == NO, "unknown verdict")
    if "satisfiable" not in cache:
        cache["satisfiable"] = refs.satisfiable(f)
    require(not cache["satisfiable"], "unsat verdict, but the reference satisfies it")


def check_valid(spec, code, payload, cache) -> None:
    names, f = spec["names"], spec["formula"]
    if payload["verdict"] == "valid":
        require(code == YES, "exit code disagrees with the verdict")
        if "valid" not in cache:
            cache["valid"] = refs.valid(f)
        require(cache["valid"], "valid verdict, but the reference finds a countermodel")
        return
    require(payload["verdict"] == "invalid" and code == NO, "unknown verdict")
    counter = payload["counterexample"]
    assignment = assignment_of(names, counter["assignment"], f)
    require(not refs.evaluate(f, assignment.__getitem__), "assignment satisfies the formula")
    edges = hypergraph_edges(names, counter["hypergraph"])
    require(not refs.evaluate(f, lambda atom: refs.holds_in(edges, atom)),
            "countermodel does not falsify the formula")
    require(refs.realizes(edges, assignment), "countermodel does not realize the assignment")


# -- counterexample --------------------------------------------------------------

def check_counterexample(spec, code, payload, cache) -> None:
    names, f = spec["names"], spec["formula"]
    require(code == NO and payload["verdict"] == "invalid", "invalid formula not refuted")
    pkg = payload["package"]
    edges = hypergraph_edges(names, pkg["hypergraph"])
    require(sorted(edges) == sorted(spec["premises"]),
            "countermodel is not the premise hypergraph")
    truth = {atom: refs.holds_in(edges, atom) for atom in refs.formula_atoms(f)}
    require(not refs.evaluate(f, truth.__getitem__), "formula holds in the package's hypergraph")
    proved = {}
    for entry in pkg["true_atoms"]:
        atom = refs.parse_atom(names, entry["atom"])
        require(_walk(names, entry["proof"], edges) == atom,
                f"proof of {entry['atom']} concludes another atom")
        proved[atom] = True
    require(set(proved) == {a for a, v in truth.items() if v}, "true atoms listed wrongly")
    refuted = {refs.parse_atom(names, ref["atom"]): ref["witnesses"] for ref in pkg["false_atoms"]}
    require(set(refuted) == {a for a, v in truth.items() if not v}, "false atoms listed wrongly")
    full = (1 << len(names)) - 1
    for atom, witnesses in refuted.items():
        lhs, rhs, budget = atom
        cuts = []
        for w in witnesses:
            ids = w["edges"]
            require(sum((edges[e][2] for e in set(ids)), Fraction(0)) <= budget,
                    "witness edge set exceeds the budget")
            left = refs.closure(edges, lhs, ids)
            require(refs.mask_of(names, w["cut"]["left"]) == left, "witness cut is not the closure")
            require(refs.mask_of(names, w["cut"]["right"]) == full & ~left,
                    "witness cut sides overlap")
            root = refs.mask_of(names, [w["root"]])
            require(root & rhs and not root & left, "witness root is not a missed goal vertex")
            c = w["checks"]
            require(c["equation_violations"] == 0 and c["structure_ok"] and c["agreement_ok"]
                    and c["root_flipped"], "witness reports a failed check")
            cuts.append(left)
        affordable = [i for i, e in enumerate(edges) if e[2] <= budget]
        for mask in range(1 << len(affordable)):
            chosen = [e for k, e in enumerate(affordable) if mask >> k & 1]
            if sum((edges[e][2] for e in chosen), Fraction(0)) > budget:
                continue
            reach = refs.closure(edges, lhs, chosen)
            require(any(reach & ~cut == 0 for cut in cuts),
                    "an affordable purchase set has no witness")
    acyclic = not refs.is_cyclic(edges, len(names))
    require(("linear" in pkg) == acyclic, "materialization present iff acyclic fails")
    if acyclic:
        evals = {refs.parse_atom(names, t): v for t, v in pkg["linear"]["atom_evals"].items()}
        require(evals == truth, "linear model disagrees with the hypergraph semantics")


# -- models ----------------------------------------------------------------------

def check_mine(spec, code, payload, cache) -> None:
    require(code == YES, "mine did not exit 0")
    if "mined" not in cache:
        cache["mined"] = spec["table"].mine(spec["cap"], spec["max_lhs"])
    found = payload["dependencies"]
    require(len(set(found)) == len(found), "a dependency is listed twice")
    require(set(found) == cache["mined"], "mined dependencies differ from the reference set")


def check_model(spec, code, payload, cache) -> None:
    if "holds" not in cache:
        cache["holds"] = refs.evaluate(spec["formula"], spec["table"].holds)
    verdict = "holds" if cache["holds"] else "fails"
    require(payload["verdict"] == verdict, f"verdict {payload['verdict']}, reference {verdict}")
    require(code == (YES if cache["holds"] else NO), "exit code disagrees with the verdict")


CHECKS = {
    "prove": check_prove,
    "min-budget": check_min_budget,
    "sat": check_sat,
    "valid": check_valid,
    "counterexample": check_counterexample,
    "mine": check_mine,
    "check-model": check_model,
}
