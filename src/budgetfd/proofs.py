"""Proof objects for the three dependency axioms, plus a checker.

A proof is a tree over four node kinds:

* ``Premise(atom)`` — cites an assumed atom;
* ``Reflexivity(A, B, p)`` — concludes ``A |p B``, valid only when B is a
  subset of A;
* ``Augmentation(sub, C)`` — from a proof of ``A |p B`` concludes
  ``A∪C |p B∪C``;
* ``Transitivity(left, right)`` — from proofs of ``A |p B`` and ``B |q C``
  concludes ``A |p+q C``; the middle sets must match exactly.

``check_proof`` validates side conditions bottom-up and is a separate code
path from the builders, so a passing certificate actually means something.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import field
from .formula import AttrSet, Atom, Universe, parse_atom, parse_attr_set
from .hypergraph import ClosureTrace, Hypergraph


class Proof:
    __slots__ = ()

    @property
    def concludes(self) -> Atom:
        raise NotImplementedError


@dataclass(frozen=True)
class Premise(Proof):
    atom: Atom

    @property
    def concludes(self) -> Atom:
        return self.atom


@dataclass(frozen=True)
class Reflexivity(Proof):
    lhs: AttrSet
    rhs: AttrSet
    budget: Fraction

    @cached_property
    def concludes(self) -> Atom:
        return Atom(self.lhs, self.rhs, self.budget)


@dataclass(frozen=True)
class Augmentation(Proof):
    sub: Proof
    added: AttrSet

    @cached_property
    def concludes(self) -> Atom:
        inner = self.sub.concludes
        return Atom(inner.lhs | self.added, inner.rhs | self.added, inner.budget)


@dataclass(frozen=True)
class Transitivity(Proof):
    left: Proof
    right: Proof

    @cached_property
    def concludes(self) -> Atom:
        a, b = self.left.concludes, self.right.concludes
        return Atom(a.lhs, b.rhs, a.budget + b.budget)


@dataclass
class ProofCheck:
    """Truthy when the proof is valid; otherwise carries the first failure."""

    ok: bool
    failure_path: tuple[int, ...] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_proof(proof: Proof, premises: Iterable[Atom]) -> ProofCheck:
    """Validate every node's side condition and premise membership."""
    allowed = set(premises)

    def walk(node: Proof, path: tuple[int, ...]) -> ProofCheck:
        if isinstance(node, Premise):
            if node.atom not in allowed:
                return ProofCheck(False, path, f"premise {node.atom} not assumed")
            return ProofCheck(True)
        if isinstance(node, Reflexivity):
            if not node.rhs <= node.lhs:
                return ProofCheck(
                    False, path, f"reflexivity needs {node.rhs} inside {node.lhs}"
                )
            return ProofCheck(True)
        if isinstance(node, Augmentation):
            return walk(node.sub, path + (0,))
        if isinstance(node, Transitivity):
            result = walk(node.left, path + (0,))
            if not result:
                return result
            result = walk(node.right, path + (1,))
            if not result:
                return result
            middle_out = node.left.concludes.rhs
            middle_in = node.right.concludes.lhs
            if middle_out != middle_in:
                return ProofCheck(
                    False, path, f"transitivity middle mismatch: {middle_out} vs {middle_in}"
                )
            return ProofCheck(True)
        return ProofCheck(False, path, f"unknown node {node!r}")

    return walk(proof, ())


def build_proof(
    h: Hypergraph,
    premises: Iterable[Atom],
    goal: Atom,
    trace: ClosureTrace,
    edge_ids: Iterable[int],
) -> Proof:
    """Turn a closure trace over the premise hypergraph into a proof of ``goal``.

    Each trace step fires one premise edge: the premise atom is augmented
    by the set reached so far and absorbed with a transitivity step.  A
    final reflexivity pads the spent weight up to the goal budget, and a
    second one projects the closure down to the goal's right side.
    """
    premise_set = set(premises)
    ids = set(edge_ids)
    spent = h.weight_of(ids)
    if spent > goal.budget:
        raise ValueError(f"edge set weighs {spent}, over budget {goal.budget}")
    if trace.sets[0] != goal.lhs:
        raise ValueError("trace does not start at the goal's left side")
    if not goal.rhs <= trace.final():
        raise ValueError("trace does not reach the goal's right side")

    current: Proof = Reflexivity(goal.lhs, goal.lhs, Fraction(0))
    used = Fraction(0)
    for i, e in enumerate(trace.edges):
        if e not in ids:
            raise ValueError(f"trace fires edge {e} outside the chosen set")
        edge = h.edges[e]
        atom = Atom(edge.tails, edge.heads, edge.weight)
        if atom not in premise_set:
            raise ValueError(f"edge atom {atom} is not a premise")
        step = Augmentation(Premise(atom), trace.sets[i])
        current = Transitivity(current, step)
        used += edge.weight
    if used < goal.budget:
        current = Transitivity(
            Reflexivity(goal.lhs, goal.lhs, goal.budget - used), current
        )
    current = Transitivity(current, Reflexivity(trace.final(), goal.rhs, Fraction(0)))
    assert current.concludes == goal
    return current


def derive_weakening(
    budget: Fraction, a: AttrSet, b: AttrSet, c: AttrSet, d: AttrSet
) -> Proof:
    """From A |p C∪D conclude A∪B |p C (augment by B, then project)."""
    premise = Premise(Atom(a, c | d, budget))
    widened = Augmentation(premise, b)
    return Transitivity(widened, Reflexivity(b | c | d, c, Fraction(0)))


def derive_monotonicity(a: AttrSet, b: AttrSet, p: Fraction, q: Fraction) -> Proof:
    """From A |p B conclude A |q B for q >= p (pad with B |q-p B)."""
    if q < p:
        raise ValueError(f"monotonicity needs q >= p, got p={p}, q={q}")
    premise = Premise(Atom(a, b, p))
    return Transitivity(premise, Reflexivity(b, b, q - p))


def derive_general_augmentation(
    a: AttrSet, b: AttrSet, c: AttrSet, d: AttrSet, p: Fraction, q: Fraction
) -> Proof:
    """From A |p B and C |q D conclude A∪C |p+q B∪D."""
    first = Augmentation(Premise(Atom(a, b, p)), c)
    second = Augmentation(Premise(Atom(c, d, q)), b)
    return Transitivity(first, second)


# -- JSON wire format -------------------------------------------------------

def proof_to_json_dict(proof: Proof) -> dict:
    conclusion = str(proof.concludes)
    if isinstance(proof, Premise):
        return {"rule": "Premise", "concludes": conclusion}
    if isinstance(proof, Reflexivity):
        return {"rule": "Refl", "concludes": conclusion}
    if isinstance(proof, Augmentation):
        return {
            "rule": "Aug",
            "add": str(proof.added),
            "sub": proof_to_json_dict(proof.sub),
            "concludes": conclusion,
        }
    if isinstance(proof, Transitivity):
        return {
            "rule": "Trans",
            "left": proof_to_json_dict(proof.left),
            "right": proof_to_json_dict(proof.right),
            "concludes": conclusion,
        }
    raise TypeError(f"not a proof node: {proof!r}")


def proof_from_json_dict(data: Mapping, universe: Universe) -> Proof:
    stated = parse_atom(field(data, "concludes", "proof node", str), universe)
    rule = data.get("rule")
    if rule == "Premise":
        return Premise(stated)
    if rule == "Refl":
        node: Proof = Reflexivity(stated.lhs, stated.rhs, stated.budget)
    elif rule == "Aug":
        node = Augmentation(
            proof_from_json_dict(field(data, "sub", "Aug node", dict), universe),
            parse_attr_set(field(data, "add", "Aug node", str), universe),
        )
    elif rule == "Trans":
        node = Transitivity(
            proof_from_json_dict(field(data, "left", "Trans node", dict), universe),
            proof_from_json_dict(field(data, "right", "Trans node", dict), universe),
        )
    else:
        raise ValueError(f"unknown proof rule {rule!r}")
    if node.concludes != stated:
        raise ValueError(
            f"stored conclusion {stated} does not match recomputed {node.concludes}"
        )
    return node
