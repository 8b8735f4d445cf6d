"""Differential tests of the native dense LU and the per-solve geometry
cache.

The numpy loop in :mod:`repro.fem.solver.direct` is the reference: the
C kernel must give the same factors, pivots and swap count bit for bit,
on generated matrices (forced pivoting, NaN/inf entries) and on whole
FEM solves.  The Hypothesis budget is small and seeded; raise
``max_examples`` locally to fuzz harder.
"""

import ctypes
import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import nativelib, telemetry
from repro.fem.assembly import GeometryCache, StateStore, assemble_system
from repro.fem.dofs import FIELDS
from repro.fem.solver import DenseLU, direct, solve_linear, solve_model
from repro.sparse import CSRMatrix
from repro.workloads import get as get_workload

needs_native = pytest.mark.skipif(
    direct._load_kernel() is None,
    reason=f"native dense LU unavailable: {direct._build_error}")


def _force(monkeypatch, path):
    """Run every DenseLU of this test on *path* ("native" or "numpy")."""
    if path == "numpy":
        monkeypatch.setattr(direct, "_lib", None)
        monkeypatch.setattr(direct, "_build_error", "forced off")
    elif direct._load_kernel() is None:
        pytest.skip(f"native dense LU unavailable: {direct._build_error}")
    assert direct.lu_path() == path


def _same_bits(a, b):
    """Equal bit for bit, except that any two NaNs match.

    IEEE 754 leaves the sign and payload of a NaN produced from two NaN
    operands to the hardware and to the operand order the compiler
    picks for a commutative multiply, so neither numpy nor C pins them.
    Every other value, signed zeros and infinities included, must match
    exactly.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(nan_a, nan_b) and np.array_equal(
        a[~nan_a].view(np.uint64), b[~nan_b].view(np.uint64)))


def _factor(path, A):
    """``(lu, piv, swaps)`` from one path's factorization of a copy of
    *A*, or the exception it raised."""
    A = np.array(A, dtype=np.float64, order="C")
    try:
        if path == "native":
            piv, swaps = direct._factor_native(direct._load_kernel(), A)
        else:
            with np.errstate(all="ignore"):  # NaN/inf inputs
                piv, swaps = direct._factor_numpy(A)
    except np.linalg.LinAlgError as exc:
        return exc
    return A, piv, swaps


def _assert_paths_agree(A):
    ref = _factor("numpy", A)
    got = _factor("native", A)
    if isinstance(ref, Exception):
        assert isinstance(got, np.linalg.LinAlgError), got
        return
    assert not isinstance(got, Exception), got
    assert _same_bits(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2]


_SPECIAL = (np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300)


@st.composite
def matrices(draw):
    """Square matrices, n = 0..64: a random dense base, pivoting forced
    by shrinking the diagonal and shuffling rows, exact zeros and
    repeated rows/columns (ties and singular pivots), plus a few
    special values (NaN, inf, signed zeros, subnormals)."""
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if n and draw(st.booleans()):
        A[np.diag_indices(n)] *= draw(st.sampled_from((0.0, 1e-3, 1e-12)))
    if n and draw(st.booleans()):
        A = A[rng.permutation(n)]
    if n and draw(st.booleans()):
        A[rng.random((n, n)) < draw(st.floats(0.0, 0.9))] = 0.0
    if n > 1 and draw(st.booleans()):
        i, j = rng.integers(0, n, 2)
        A[i] = A[j] * draw(st.sampled_from((1.0, -1.0, 2.0)))
    if n:
        for _ in range(draw(st.integers(0, 4))):
            i, j = rng.integers(0, n, 2)
            if draw(st.booleans()):
                j = 0  # the first pivot search sees it
            A[i, j] = draw(st.sampled_from(_SPECIAL))
    return A


@needs_native
@seed(1313)
@settings(max_examples=60, deadline=None)
@given(matrices())
def test_native_factorization_matches_numpy(A):
    _assert_paths_agree(A)


@needs_native
@pytest.mark.parametrize("n", (1, 2, 31, 32, 33, 64, 65, 130))
def test_panel_edges_match_numpy(n):
    # Sizes on both sides of the kernel's 32-column panels and its
    # 4-step unrolled updates.
    rng = np.random.default_rng(n)
    _assert_paths_agree(rng.standard_normal((n, n)))


# The pivot rule: numpy's argmax over |column| takes the first maximum
# and stops at the first NaN.
_PIVOT_CASES = {
    "tie": [[1.0, 2.0, 3.0], [-4.0, 1.0, 1.0], [4.0, 1.0, 2.0]],
    "nan-first": [[1.0, 2.0, 3.0], [np.nan, 1.0, 1.0], [5.0, 1.0, 2.0]],
    "nan-on-diagonal": [[np.nan, 2.0, 3.0], [7.0, 1.0, 1.0],
                        [5.0, 1.0, 2.0]],
    "inf": [[1.0, 2.0, 3.0], [-np.inf, 1.0, 1.0], [np.inf, 1.0, 2.0]],
}


@needs_native
@pytest.mark.parametrize("case", sorted(_PIVOT_CASES))
def test_pivot_rule_matches_numpy(case):
    A = np.array(_PIVOT_CASES[case])
    _assert_paths_agree(A)
    _assert_paths_agree(A.T.copy())


# Exactly-zero pivots: in the middle of the factorization (column 1 of
# the first matrix is eliminated exactly) and at the last step.
_SINGULAR = {
    "mid": [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [3.0, 6.0, 1.0]],
    "last": [[2.0, 1.0, 1.0], [4.0, 3.0, 3.0], [8.0, 7.0, 7.0]],
    "zero": [[0.0] * 3] * 3,
}


@pytest.mark.parametrize("path", ("native", "numpy"))
@pytest.mark.parametrize("case", sorted(_SINGULAR))
def test_zero_pivot_raises(monkeypatch, path, case):
    _force(monkeypatch, path)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        DenseLU(np.array(_SINGULAR[case]))


@pytest.mark.parametrize("path", ("native", "numpy"))
def test_constructor_copies_from_csr_factors_in_place(monkeypatch, path):
    _force(monkeypatch, path)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40))
    keep = A.copy()
    lu = DenseLU(A)
    assert np.array_equal(A, keep) and lu._lu is not A
    b = rng.standard_normal(40)
    assert np.allclose(keep @ lu.solve(b), b)
    rows, cols = np.nonzero(A)
    csr = CSRMatrix.from_coo(40, rows, cols, A[rows, cols])
    made = []
    to_dense = CSRMatrix.to_dense

    def spy(self):
        made.append(to_dense(self))
        return made[-1]

    monkeypatch.setattr(CSRMatrix, "to_dense", spy)
    from_csr = DenseLU.from_csr(csr)
    assert from_csr._lu is made[0]  # no copy
    assert _same_bits(from_csr._lu, lu._lu)
    assert np.array_equal(from_csr._piv, lu._piv)


@pytest.mark.parametrize("path", ("native", "numpy"))
def test_each_factorization_is_counted_by_path(monkeypatch, path):
    _force(monkeypatch, path)
    count = telemetry.counter("repro_fem_dense_lu_total", path=path)
    before = count.get()
    n = 12
    K = CSRMatrix.from_coo(n, list(range(n)), list(range(n)), [2.0] * n)
    x, info = solve_linear(K, np.ones(n), method="direct")
    assert info.method == "direct" and np.allclose(x, 0.5)
    assert count.get() == before + 1


def _solve_digest(workload):
    """SHA-256 over a default-scale solve: final values, the final
    tangent's CSR arrays and every step's Newton, contact and
    linear-solve record."""
    values, record = solve_model(get_workload(workload).build("default"))
    h = hashlib.sha256(values.tobytes())
    K = record.matrix
    for a in (K.data, K.indices, K.indptr):
        h.update(np.ascontiguousarray(a).tobytes())
    for s in record.steps:
        h.update(repr((s.t, s.dt, s.newton_iterations, s.residual_norms,
                       s.contact_active, s.contact_candidates)).encode())
        for i in s.linear_solves:
            h.update(repr((i.method, i.n, i.nnz, i.iterations, i.converged,
                           i.residual_norm)).encode())
    return h.hexdigest()


@needs_native
@pytest.mark.parametrize("workload", ("ma", "tu"))
def test_solve_is_byte_identical_on_both_paths(monkeypatch, workload):
    with monkeypatch.context() as m:
        _force(m, "native")
        native = _solve_digest(workload)
    _force(monkeypatch, "numpy")
    assert _solve_digest(workload) == native


def _reachable(roots, limit=200_000):
    """Every object reachable from *roots* (bounded walk)."""
    seen = {}
    stack = list(roots)
    while stack and len(seen) < limit:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def test_geometry_cache_does_not_outlive_the_solve():
    model = get_workload("ma").build("default")
    _, record = solve_model(model)
    record.model = model  # as the runner keeps it
    gc.collect()
    assert not any(isinstance(o, GeometryCache)
                   for o in _reachable([record, model]))
    assert not any(isinstance(o, GeometryCache) for o in gc.get_objects())


@pytest.mark.parametrize("workload", ("ar", "tu"))
def test_cached_geometry_assembles_the_same_bits(workload):
    # ar takes the finite-strain path (no cached B), tu the small-strain
    # one; a warm cache must change nothing in K or the residual.
    model = get_workload(workload).build("tiny")
    values = model.new_field_array()
    rng = np.random.default_rng(5)
    u = [FIELDS.index(f) for f in ("ux", "uy", "uz")]
    values[:, u] = 1e-3 * rng.standard_normal((values.shape[0], 3))
    body_q = model.new_body_vector()
    states = StateStore(model)
    args = (model, values, values.copy(), body_q, states, 0.1, 0.1)
    K0, f0, _, _ = assemble_system(*args)
    cache = GeometryCache()
    for _ in range(2):  # cold, then warm
        K1, f1, _, _ = assemble_system(*args, cache)
        assert _same_bits(f1, f0)
        assert _same_bits(K1.data, K0.data)
        assert np.array_equal(K1.indices, K0.indices)
        assert np.array_equal(K1.indptr, K0.indptr)


_TRIVIAL_C = "int answer(void) { return 42; }\n"


def test_loader_tags_objects_by_compiler_flags(tmp_path, monkeypatch):
    if nativelib._find_compiler() is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "so"))
    src = tmp_path / "answer.c"
    src.write_text(_TRIVIAL_C)
    sig = {"answer": (None, [])}
    nativelib.load(str(src), "answer", ("-O2",), sig)
    nativelib.load(str(src), "answer", ("-O2",), sig)  # cached
    lib = nativelib.load(str(src), "answer", ("-O2", "-ffp-contract=off"),
                         {"answer": (ctypes.c_int, [])})
    assert lib.answer() == 42
    built = sorted(p.name for p in (tmp_path / "so").iterdir())
    assert len(built) == 2 and all(p.startswith("answer_") for p in built)


def test_loader_reports_why_it_cannot_build(tmp_path, monkeypatch):
    src = tmp_path / "answer.c"
    src.write_text(_TRIVIAL_C)
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "so"))
    monkeypatch.setattr(nativelib, "_find_compiler", lambda: None)
    with pytest.raises(nativelib.BuildError, match="no C compiler"):
        nativelib.load(str(src), "answer", (), {})
    monkeypatch.undo()
    if nativelib._find_compiler() is None:
        return
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path / "so"))
    src.write_text("this is not C\n")
    with pytest.raises(nativelib.BuildError, match="compile failed"):
        nativelib.load(str(src), "broken", (), {})
    assert not any((tmp_path / "so").iterdir())  # no temp file left
