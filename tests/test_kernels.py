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
    """The committed C file, built with setuptools' build_ext and loaded.
    Any compiler warning fails the build here; ``setup.py`` keeps ``-O2``
    alone so that a user's build never does."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"C compiler {cc!r} not on PATH")
    out = tmp_path_factory.mktemp("closure_c")
    ext = Extension("budgetfd._closure_c", [str(C_SOURCE)], extra_compile_args=["-O2", "-Wall", "-Werror"])
    cmd = build_ext(Distribution({"name": "budgetfd", "ext_modules": [ext]}))
    cmd.build_lib, cmd.build_temp = str(out / "lib"), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rounds(tails, heads, edge_mask, start):
    """The round-based fixpoint of ``closure_rounds``, over raw masks.  The
    kernels share one worklist algorithm, so each is checked against this
    one rather than against the other."""
    current = start
    while True:
        reached = current
        for e, (tail, head) in enumerate(zip(tails, heads)):
            if edge_mask >> e & 1 and not tail & ~current:
                reached |= head
        if reached == current:
            return current
        current = reached


def _random_instance(rng):
    """Up to 8 vertices and 10 edges, about one edge in four tail-less."""
    n_vertices = rng.randint(1, 8)
    n_edges = rng.randint(0, 10)
    full = (1 << n_vertices) - 1
    tails = [0 if rng.random() < 0.25 else rng.randrange(1, full + 1) for _ in range(n_edges)]
    heads = [rng.randrange(full + 1) for _ in range(n_edges)]
    return tails, heads, n_vertices


def _check_extend(make_kernel, rng, is_compiled):
    """``extend`` from a closed set equals the fixpoint of the union, and
    ``closure`` the fixpoint of its start, on small instances and on
    instances of exactly 64 vertices and 64 edges.  Edges have at most two
    tails (often none) and three heads, and every fifth edge repeats the
    one before it."""
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
        for _ in range(6):
            edge_mask = rng.getrandbits(n_edges)
            start = some(4)
            closed = _rounds(tails, heads, edge_mask, start)
            assert kernel.closure(edge_mask, start) == closed
            new = some(3)
            if rng.random() < 0.2:
                new &= closed
            assert kernel.extend(edge_mask, closed, new) == _rounds(tails, heads, edge_mask,
                                                                    closed | new)


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
            expected = _rounds(tails, heads, edge_mask, start)
            assert fast.closure(edge_mask, start) == expected
            assert pure.closure(edge_mask, start) == expected


def test_compiled_rejects_oversized(compiled):
    """Every input the C arrays cannot hold is refused with a Python error."""
    make = compiled.ClosureKernel
    with pytest.raises(ValueError):
        make([0] * 65, [0] * 65, 4)
    with pytest.raises(ValueError):
        make([1], [2], 65)
    with pytest.raises(ValueError):
        make([1, 2], [2], 4)
    with pytest.raises(ValueError):
        make([1], [2], -1)
    for bad in (-1, 1 << 64):
        with pytest.raises(OverflowError):
            make([bad], [2], 4)
        with pytest.raises(OverflowError):
            make([1], [bad], 4)
    with pytest.raises(TypeError):
        make([1, "2"], [2, 1], 4)
    kernel = make([1], [2], 2)
    for bad in (-1, 1 << 64):
        with pytest.raises(OverflowError):
            kernel.closure(bad, 1)
        with pytest.raises(OverflowError):
            kernel.extend(1, 1, bad)
    for args in ((), (1,), (1, 1, 1)):
        with pytest.raises(TypeError):
            kernel.closure(*args)
    for args in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(TypeError):
            kernel.extend(*args)
    assert kernel.closure(1, 1) == 3
    assert kernel.closure((1 << 64) - 1, 1) == 3


def test_mismatched_tail_and_head_lists_are_refused(compiled):
    for make in (compiled.ClosureKernel, _closure_py.ClosureKernel):
        for tails, heads in (([0, 1], [2]), ([1], [2, 1]), ([], [1])):
            with pytest.raises(ValueError, match="differ in length"):
                make(tails, heads, 2)


def test_vertices_beyond_the_kernel_have_no_out_edges(compiled):
    for make in (compiled.ClosureKernel, _closure_py.ClosureKernel):
        kernel = make([1], [2], 2)
        assert kernel.closure(0, 1 << 63) == 1 << 63
        assert kernel.closure(1, 1 << 63 | 1) == 1 << 63 | 3
        assert kernel.extend(1, 0, 1 << 40) == 1 << 40


def test_selection_uses_compiled_up_to_64(compiled, monkeypatch):
    monkeypatch.setattr(kernels, "_closure_c", compiled)
    assert compiled.ClosureKernel.is_compiled is True
    assert kernels.closure_kernel([1] * 64, [2] * 64, 64).is_compiled
    # the module name perfbench's worker reports as the kernel in use
    assert type(kernels.closure_kernel([], [], 0)).__module__ == "budgetfd._closure_c"
    assert not kernels.closure_kernel([1] * 65, [2] * 65, 4).is_compiled
    assert not kernels.closure_kernel([1], [2], 65).is_compiled


def test_selection_prefers_compiled_when_available():
    kernel = kernels.closure_kernel([1], [2], 2)
    assert kernel.is_compiled == kernels.compiled_available()
