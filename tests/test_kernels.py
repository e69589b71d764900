import importlib.util
import os
import random
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

from budgetfd import closure, closure_rounds
from budgetfd import _closure_py, kernels

from _gen import random_attr_set, random_hypergraph

C_SOURCE = Path(kernels.__file__).with_name("_closure_c.c")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The committed C file, built with setuptools' build_ext and loaded."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"C compiler {cc!r} not on PATH")
    out = tmp_path_factory.mktemp("closure_c")
    ext = Extension("budgetfd._closure_c", [str(C_SOURCE)], extra_compile_args=["-O2"])
    cmd = build_ext(Distribution({"name": "budgetfd", "ext_modules": [ext]}))
    cmd.build_lib, cmd.build_temp = str(out / "lib"), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_instance(rng):
    n_vertices = rng.randint(1, 8)
    n_edges = rng.randint(0, 10)
    full = (1 << n_vertices) - 1
    tails = [rng.randrange(full + 1) for _ in range(n_edges)]
    heads = [rng.randrange(full + 1) for _ in range(n_edges)]
    return tails, heads, n_vertices


def _check_extend(make_kernel, rng, is_compiled):
    """``extend`` from a closed set equals ``closure`` of the union, on small
    instances and on instances of exactly 64 vertices and 64 edges.  Edges
    have at most two tails (often none) and three heads, and every fifth
    edge repeats the one before it."""
    sizes = [(rng.randint(1, 8), rng.randint(0, 10)) for _ in range(300)] + [(64, 64)] * 30
    for n_vertices, n_edges in sizes:
        def some(k):
            mask = 0
            for _ in range(rng.randint(0, k)):
                mask |= 1 << rng.randrange(n_vertices)
            return mask

        tails = [some(2) for _ in range(n_edges)]
        heads = [some(3) for _ in range(n_edges)]
        for e in range(1, n_edges, 5):
            tails[e], heads[e] = tails[e - 1], heads[e - 1]
        kernel = make_kernel(tails, heads, n_vertices)
        assert kernel.is_compiled == is_compiled
        pure = _closure_py.ClosureKernel(tails, heads, n_vertices)
        for _ in range(6):
            edge_mask = rng.getrandbits(n_edges)
            closed = pure.closure(edge_mask, some(4))
            new = some(3)
            if rng.random() < 0.2:
                new &= closed
            assert kernel.extend(edge_mask, closed, new) == pure.closure(edge_mask, closed | new)


def test_pure_extend_matches_closure():
    _check_extend(_closure_py.ClosureKernel, random.Random(33), False)


def test_compiled_extend_matches_closure(compiled, monkeypatch):
    monkeypatch.setattr(kernels, "_closure_c", compiled)
    _check_extend(kernels.closure_kernel, random.Random(34), True)


def test_pure_matches_rounds_oracle():
    rng = random.Random(31)
    for _ in range(300):
        h = random_hypergraph(rng)
        a = random_attr_set(rng, h.universe)
        ids = [e for e in range(len(h.edges)) if rng.random() < 0.6]
        assert closure(h, a, ids) == closure_rounds(h, a, ids)


def test_compiled_matches_pure(compiled):
    rng = random.Random(32)
    for _ in range(400):
        tails, heads, n = _random_instance(rng)
        pure = _closure_py.ClosureKernel(tails, heads, n)
        fast = compiled.ClosureKernel(tails, heads, n)
        for _ in range(5):
            edge_mask = rng.randrange(1 << len(tails)) if tails else 0
            start = rng.randrange(1 << n)
            assert fast.closure(edge_mask, start) == pure.closure(edge_mask, start)


def test_compiled_rejects_oversized(compiled):
    with pytest.raises(ValueError):
        compiled.ClosureKernel([0] * 65, [0] * 65, 4)


def test_selection_uses_compiled_up_to_64(compiled, monkeypatch):
    monkeypatch.setattr(kernels, "_closure_c", compiled)
    assert kernels.closure_kernel([1] * 64, [2] * 64, 64).is_compiled
    assert not kernels.closure_kernel([1] * 65, [2] * 65, 4).is_compiled
    assert not kernels.closure_kernel([1], [2], 65).is_compiled


def test_selection_prefers_compiled_when_available():
    kernel = kernels.closure_kernel([1], [2], 2)
    assert kernel.is_compiled == kernels.compiled_available()
