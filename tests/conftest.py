from fractions import Fraction

import pytest

from budgetfd import Hypergraph, Universe, parse_atom
from budgetfd.infomodel import InfoModel


@pytest.fixture
def conversions(monkeypatch):
    """The arguments of every ``in_units`` call the package makes in the test."""
    from budgetfd import entailment, hypergraph, infomodel
    from budgetfd.formula import in_units

    calls = []
    for module in (entailment, hypergraph, infomodel):
        monkeypatch.setattr(module, "in_units", lambda values: calls.append(values)
                            or in_units(values))
    return calls


@pytest.fixture(scope="session")
def fig9():
    """Six vertices, two edges: e0 {v1,v2}->{v3,v4}, e1 {v1,v4}->{v5,v6}."""
    u = Universe(["v1", "v2", "v3", "v4", "v5", "v6"])
    return Hypergraph(
        u,
        [
            (["v1", "v2"], ["v3", "v4"], 1),
            (["v1", "v4"], ["v5", "v6"], 1),
        ],
    )


@pytest.fixture(scope="session")
def fig4_universe():
    return Universe(["a", "b"])


@pytest.fixture(scope="session")
def fig4_premises(fig4_universe):
    u = fig4_universe
    return [parse_atom("{} |3 {a}", u), parse_atom("{} |5 {b}", u)]


@pytest.fixture(scope="session")
def fig5_universe():
    return Universe(["a", "b", "c"])


@pytest.fixture(scope="session")
def fig5_premises(fig5_universe):
    u = fig5_universe
    return [
        parse_atom("{} |3 {a}", u),
        parse_atom("{} |5 {b}", u),
        parse_atom("{} |4 {c}", u),
        parse_atom("{a,c} |0 {b}", u),
        parse_atom("{b,c} |0 {a}", u),
    ]


@pytest.fixture(scope="session")
def fig10_universe():
    return Universe(["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def fig10_premises(fig10_universe):
    u = fig10_universe
    return [
        parse_atom("{} |1 {c}", u),
        parse_atom("{} |5 {d}", u),
        parse_atom("{} |100 {a}", u),
        parse_atom("{} |100 {b}", u),
        parse_atom("{a,c} |0 {b}", u),
        parse_atom("{b,d} |0 {a}", u),
    ]


@pytest.fixture(scope="session")
def fig4_model():
    """Folder a (price 3) constant, folder b (price 5) holds one free bit."""
    u = Universe(["a", "b"])
    return InfoModel(u, (Fraction(3), Fraction(5)), (("e", "0"), ("e", "1")))


@pytest.fixture(scope="session")
def fig5_model():
    """One-time pad: b holds x, c holds the pad, a holds x xor pad."""
    u = Universe(["a", "b", "c"])
    rows = []
    for x in (0, 1):
        for pad in (0, 1):
            rows.append((str(x ^ pad), str(x), str(pad)))
    return InfoModel(u, (Fraction(3), Fraction(5), Fraction(4)), tuple(rows))


@pytest.fixture(scope="session")
def fig10_finite_model():
    """Finite model with the two-way asymmetric-price dependency.

    Bits s, t, p: b = s, a = (s xor p, t), c = p, d = (p, t).  Folder d
    includes a copy of the pad p, so {b,d} recovers a at price 5 while
    {a,c} recovers b at price 1, and nothing cheaper works.
    """
    u = Universe(["a", "b", "c", "d"])
    rows = []
    for s in (0, 1):
        for t in (0, 1):
            for p in (0, 1):
                rows.append((f"{s ^ p}{t}", str(s), str(p), f"{p}{t}"))
    costs = (Fraction(100), Fraction(100), Fraction(1), Fraction(5))
    return InfoModel(u, costs, tuple(rows))
