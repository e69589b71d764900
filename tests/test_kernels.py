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
