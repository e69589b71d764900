"""Command-line front end.

Exit codes: 0 affirmative (proved / valid / holds / sat), 1 negative with a
certificate emitted, 2 usage or parse error, 3 instance cap exceeded (a
formula nested past Python's recursion limit included).
Machine-readable JSON goes to stdout with ``--json``; identical inputs
produce byte-identical output.  Premise and formula files declare their
attribute universe in a header line ``attrs: a,b,c`` (or via ``--attrs``;
a disagreement between the two is a hard error to prevent silently
misaligned attribute sets).  A premise file is read straight to masks, one
``(lhs mask, rhs mask, budget)`` triple per line; ``prove``, ``min-budget``
and ``check-proof`` build the premise hypergraph from them, and atoms are
made only for the premises a proof cites.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import entailment, infomodel, proofs, synth
from .entailment import UNREACHABLE
from .errors import BudgetFDError, CapExceededError, read_text
from .formula import (
    Formula,
    PremiseTriple,
    Universe,
    format_budget,
    parse_atom,
    parse_attr_set,
    parse_budget,
    parse_formula,
    parse_premises,
)
from .hypergraph import reachability_cut

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(BudgetFDError):
    pass


def _split_header(lines: list[str]) -> tuple[Universe | None, list[str]]:
    universe = None
    body: list[str] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if universe is None and not body and line.startswith("attrs:"):
            names = [n.strip() for n in line[len("attrs:"):].split(",") if n.strip()]
            universe = Universe(names)
            continue
        body.append(line)
    return universe, body


def _resolve_universe(declared: Universe | None, flag: str | None, where: str) -> Universe:
    from_flag = None
    if flag:
        from_flag = Universe(n.strip() for n in flag.split(",") if n.strip())
    if declared is not None and from_flag is not None and declared != from_flag:
        raise UsageError(
            f"--attrs disagrees with the 'attrs:' header in {where}: "
            f"{list(from_flag.names)} vs {list(declared.names)}"
        )
    universe = declared or from_flag
    if universe is None:
        raise UsageError(
            f"no attribute universe: add an 'attrs: a,b,c' header to {where} or pass --attrs"
        )
    return universe


def load_premises(path: str, attrs_flag: str | None) -> tuple[Universe, list[PremiseTriple]]:
    """The universe of a premise file and its premises, one ``(lhs mask,
    rhs mask, budget)`` triple per line (``parse_premises``)."""
    declared, body = _split_header(read_text(path).splitlines())
    universe = _resolve_universe(declared, attrs_flag, path)
    return universe, parse_premises(body, universe)


def load_formula(path: str, attrs_flag: str | None) -> tuple[Universe, Formula]:
    declared, body = _split_header(read_text(path).splitlines())
    universe = _resolve_universe(declared, attrs_flag, path)
    if not body:
        raise UsageError(f"{path}: no formula found")
    return universe, parse_formula(" ".join(body), universe)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    the types the payloads hold: dicts with str keys, lists, tuples, str,
    int, bool and None; anything else raises ``TypeError``.  With ``indent``
    set, ``json`` runs its pure-Python encoder; this writer quotes strings
    with the same C function that encoder calls and does the rest in one
    pass."""
    parts: list[str] = []
    add = parts.append
    quote = encode_basestring_ascii

    def write(value, newline: str) -> None:
        if isinstance(value, str):
            add(quote(value))
        elif value is None:
            add("null")
        elif value is True:
            add("true")
        elif value is False:
            add("false")
        elif isinstance(value, int):
            add(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                add("{}")
                return
            inner = newline + "  "
            opener = "{" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                add(opener)
                add(quote(key))
                add(": ")
                write(value[key], inner)
                opener = "," + inner
            add(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                add("[]")
                return
            inner = newline + "  "
            opener = "[" + inner
            for item in value:
                add(opener)
                write(item, inner)
                opener = "," + inner
            add(newline + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(value, "\n")
    return "".join(parts)


def _emit_json(payload: dict, path: str | None) -> None:
    text = _json_text(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print(args, payload: dict, human: str) -> None:
    if args.json:
        _emit_json(payload, None)
    else:
        print(human)


def _min_text(value) -> str:
    return "unreachable" if value is UNREACHABLE else format_budget(value)


# -- subcommands -------------------------------------------------------------

def cmd_prove(args) -> int:
    universe, premises = load_premises(args.premises, args.attrs)
    goal = parse_atom(args.goal, universe)
    answer = entailment.entails(premises, goal)
    if answer.entailed:
        assert answer.proof is not None
        if not proofs.check_proof(answer.proof, answer.hypergraph):
            raise AssertionError("internal error: emitted proof failed its checker")
        proof_json = proofs.proof_to_json_dict(answer.proof)
        if args.emit_proof:
            _emit_json(proof_json, args.emit_proof)
        _print(
            args,
            {
                "verdict": "proved",
                "goal": str(goal),
                "minimum": _min_text(answer.minimum),
                "witness_edges": sorted(answer.witness_edges or ()),
                "proof": proof_json,
            },
            f"proved: {goal} (minimum budget {_min_text(answer.minimum)})",
        )
        return EXIT_YES
    cert = answer.refutation
    assert cert is not None
    if not entailment.check_refutation(answer.hypergraph, goal, cert):
        raise AssertionError("internal error: refutation certificate failed its checker")
    cert_json = cert.to_json_dict()
    if args.emit_counter:
        _emit_json(cert_json, args.emit_counter)
    _print(
        args,
        {
            "verdict": "not_provable",
            "goal": str(goal),
            "minimum": _min_text(answer.minimum),
            "certificate": cert_json,
        },
        f"not provable: {goal} (minimum budget {_min_text(answer.minimum)})",
    )
    return EXIT_NO


def cmd_min_budget(args) -> int:
    universe, premises = load_premises(args.premises, args.attrs)
    source = parse_attr_set(getattr(args, "from"), universe)
    target = parse_attr_set(args.to, universe)
    h = entailment.canonical_hypergraph(premises, universe)
    value = entailment.min_budget(h, source, target)
    payload = {
        "from": str(source),
        "to": str(target),
        "minimum": _min_text(value),
    }
    if value is UNREACHABLE:
        cut = reachability_cut(h, source, range(len(h)))
        if target <= cut.left:
            raise AssertionError("internal error: unreachable verdict contradicts closure")
        payload["certificate"] = {
            "cut": {"left": sorted(cut.left), "right": sorted(cut.right)}
        }
    _print(args, payload, _min_text(value))
    return EXIT_YES if value is not UNREACHABLE else EXIT_NO


def cmd_sat(args) -> int:
    universe, f = load_formula(args.formula, args.attrs)
    answer = entailment.decide_satisfiable(f, cap=args.cap_atoms)
    if answer.verdict == "sat":
        assert answer.assignment is not None and answer.hypergraph is not None
        payload = {
            "verdict": "sat",
            "assignment": {
                str(atom): value
                for atom, value in sorted(
                    answer.assignment.items(), key=lambda kv: kv[0].sort_key()
                )
            },
            "hypergraph": answer.hypergraph.to_json_dict(),
        }
        _print(args, payload, "satisfiable")
        return EXIT_YES
    _print(args, {"verdict": "unsat"}, "unsatisfiable")
    return EXIT_NO


def cmd_valid(args) -> int:
    universe, f = load_formula(args.formula, args.attrs)
    answer = entailment.decide_valid(f, cap=args.cap_atoms)
    if answer.verdict == "valid":
        _print(args, {"verdict": "valid"}, "valid")
        return EXIT_YES
    assert answer.assignment is not None and answer.hypergraph is not None
    if entailment.eval_formula_hypergraph(answer.hypergraph, f):
        raise AssertionError("internal error: countermodel fails to falsify the formula")
    counter = {
        "assignment": {
            str(atom): value
            for atom, value in sorted(
                answer.assignment.items(), key=lambda kv: kv[0].sort_key()
            )
        },
        "hypergraph": answer.hypergraph.to_json_dict(),
    }
    if args.emit_counter:
        _emit_json(counter, args.emit_counter)
    _print(args, {"verdict": "invalid", "counterexample": counter}, "invalid")
    return EXIT_NO


def cmd_check_model(args) -> int:
    model = infomodel.InfoModel.from_json_dict(json.loads(read_text(args.model)))
    declared, body = _split_header(read_text(args.formula).splitlines())
    universe = declared or model.universe
    if universe != model.universe:
        raise UsageError("formula header declares a different universe than the model")
    if not body:
        raise UsageError(f"{args.formula}: no formula found")
    f = parse_formula(" ".join(body), universe)
    holds = infomodel.eval_formula_model(model, f)
    _print(
        args,
        {"verdict": "holds" if holds else "fails", "formula": str(f)},
        "holds" if holds else "fails",
    )
    return EXIT_YES if holds else EXIT_NO


def cmd_check_proof(args) -> int:
    universe, premises = load_premises(args.premises, args.attrs)
    proof = proofs.proof_from_json_dict(json.loads(read_text(args.proof)), universe)
    result = proofs.check_proof(proof, entailment.canonical_hypergraph(premises, universe))
    payload = {
        "verdict": "valid" if result.ok else "invalid",
        "concludes": str(proof.concludes),
    }
    if not result.ok:
        payload["failure_path"] = list(result.failure_path or ())
        payload["reason"] = result.reason
    _print(
        args,
        payload,
        f"proof {'valid' if result.ok else 'invalid'}: concludes {proof.concludes}"
        + ("" if result.ok else f" ({result.reason})"),
    )
    return EXIT_YES if result.ok else EXIT_NO


def cmd_counterexample(args) -> int:
    universe, f = load_formula(args.formula, args.attrs)
    answer = entailment.decide_valid(f, cap=args.cap_atoms)
    if answer.verdict == "valid":
        _print(args, {"verdict": "valid"}, "valid: no counterexample exists")
        return EXIT_YES
    assert answer.hypergraph is not None
    pkg = synth.counterexample_for(answer.hypergraph, f, materialize=args.materialize)
    if not pkg.all_checks_ok:
        raise AssertionError("internal error: counterexample package failed verification")
    payload = synth.package_to_json_dict(pkg)
    if args.emit_counter:
        _emit_json(payload, args.emit_counter)
    _print(args, {"verdict": "invalid", "package": payload}, "invalid: package built")
    return EXIT_NO


def cmd_mine(args) -> int:
    cap = parse_budget(args.cap)
    model = infomodel.load_model_csv(args.csv, args.costs)
    found = infomodel.mine_dependencies(model, cap, args.max_lhs)
    payload = {"dependencies": [str(atom) for atom in found]}
    _print(args, payload, "\n".join(str(atom) for atom in found))
    return EXIT_YES


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetfd",
        description="Reasoning engine for budget-constrained functional dependencies.",
        allow_abbrev=False,
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--attrs", help="attribute universe, e.g. 'a,b,c'")
    parser.add_argument("--cap-atoms", type=_at_least(0), default=entailment.ATOM_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove an atomic goal from premises")
    p.add_argument("--premises", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--emit-proof", metavar="PATH")
    p.add_argument("--emit-counter", metavar="PATH")

    p = sub.add_parser("min-budget", help="exact minimum budget between attribute sets")
    p.add_argument("--premises", required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)

    p = sub.add_parser("sat", help="decide satisfiability of a formula file")
    p.add_argument("formula")

    p = sub.add_parser("valid", help="decide validity of a formula file")
    p.add_argument("formula")
    p.add_argument("--emit-counter", metavar="PATH")

    p = sub.add_parser("check-model", help="evaluate a formula in an explicit model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)

    p = sub.add_parser("check-proof", help="check a proof object against premises")
    p.add_argument("--premises", required=True)
    p.add_argument("--proof", required=True)

    p = sub.add_parser("counterexample", help="full witness package for an invalid formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--materialize", action="store_true",
                   help="materialize the exact linear model when acyclic")
    p.add_argument("--emit-counter", metavar="PATH")

    p = sub.add_parser("mine", help="mine minimal dependencies from a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--costs", required=True)
    p.add_argument("--cap", required=True, help="budget cap, e.g. '5' or '9/2'")
    p.add_argument("--max-lhs", type=_at_least(0), default=2)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # looked up per call, so a wrapper installed on this module after the
    # parser was built is the handler that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        print("error: formula nested too deeply (recursion limit exceeded)", file=sys.stderr)
        return EXIT_CAP
    except (BudgetFDError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
