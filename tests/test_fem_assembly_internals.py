"""Tests of global assembly internals, state handling, and symmetry."""

import numpy as np
import pytest

from repro.fem import (
    BiphasicMaterial,
    FEModel,
    LinearElastic,
    PronyViscoelastic,
    StepSettings,
    box_hex,
    external_force,
    ramp,
    solve_model,
)
from repro.fem.assembly import StateStore, assemble_system
from repro.fem.solver.linear import is_numerically_symmetric


def _simple_model(material=None, physics="solid"):
    mesh = box_hex(2, 2, 2)
    if physics != "solid":
        mesh.blocks[0].physics = physics
    model = FEModel(mesh)
    model.add_material(material or LinearElastic(E=1.0, nu=0.3, name="mat"))
    model.fix(mesh.nodes_on_plane(2, 0.0), ("ux", "uy", "uz"))
    model.finalize()
    return model


class TestAssembly:
    def test_solid_tangent_symmetric(self):
        model = _simple_model()
        values = model.new_field_array()
        K, f, _, _ = assemble_system(
            model, values, values.copy(), model.new_body_vector(),
            StateStore(model), 0.5, 0.5,
        )
        assert is_numerically_symmetric(K)

    def test_zero_displacement_zero_residual(self):
        model = _simple_model()
        values = model.new_field_array()
        _, f, _, _ = assemble_system(
            model, values, values.copy(), model.new_body_vector(),
            StateStore(model), 0.5, 0.5,
        )
        assert np.allclose(f, 0.0, atol=1e-12)

    def test_biphasic_tangent_nonsymmetric(self):
        model = _simple_model(
            BiphasicMaterial(LinearElastic(E=1.0, nu=0.2), 1.0, name="mat"),
            physics="biphasic",
        )
        values = model.new_field_array()
        rng = np.random.default_rng(0)
        values[:, :4] = rng.random(values[:, :4].shape) * 0.01
        K, _, _, report = assemble_system(
            model, values, model.new_field_array(), model.new_body_vector(),
            StateStore(model), 0.5, 0.5,
        )
        assert report.nonsymmetric
        assert not is_numerically_symmetric(K)

    def test_report_counts_material_calls(self):
        model = _simple_model()
        values = model.new_field_array()
        _, _, _, report = assemble_system(
            model, values, values.copy(), model.new_body_vector(),
            StateStore(model), 0.5, 0.5,
        )
        assert report.material_calls["LinearElastic"] == 8 * 8  # elems x gp

    def test_matrix_dimension_matches_neq(self):
        model = _simple_model()
        values = model.new_field_array()
        K, _, _, _ = assemble_system(
            model, values, values.copy(), model.new_body_vector(),
            StateStore(model), 0.5, 0.5,
        )
        assert K.n == model.neq


class TestStateStore:
    def test_stateless_material_has_no_store(self):
        model = _simple_model()
        store = StateStore(model)
        assert store.get("box", 0) == {}

    def test_pending_commit_cycle(self):
        mat = PronyViscoelastic(LinearElastic(E=1.0, nu=0.3),
                                g=(0.3,), tau=(0.5,), name="mat")
        model = _simple_model(mat)
        store = StateStore(model)
        before = store.clone_element_states()
        values = model.new_field_array()
        values[:, 2] = -0.01 * model.mesh.nodes[:, 2]
        _, _, pending, _ = assemble_system(
            model, values, model.new_field_array(),
            model.new_body_vector(), store, 0.5, 0.5,
        )
        # Assembly alone must not mutate committed state.
        after = store.clone_element_states()
        for name in before:
            for e, (b, a) in enumerate(zip(before[name], after[name])):
                for key in b:
                    assert np.array_equal(b[key], a[key]), (name, e, key)
        store.commit(pending)
        committed = store.clone_element_states()
        moved = any(
            not np.array_equal(b[key], c[key])
            for name in before
            for b, c in zip(before[name], committed[name])
            for key in b
        )
        assert moved  # commit actually advanced the history

    def test_history_affects_later_steps(self):
        """Viscoelastic model: two steps give different reaction than one."""
        mat = PronyViscoelastic(LinearElastic(E=1.0, nu=0.3),
                                g=(0.5,), tau=(0.2,), name="mat")
        mesh = box_hex(2, 2, 2)
        model = FEModel(mesh)
        model.add_material(mat)
        model.fix(mesh.nodes_on_plane(2, 0.0), ("ux", "uy", "uz"))
        model.prescribe(mesh.nodes_on_plane(2, 1.0), "uz", -0.05, ramp())
        model.step = StepSettings(duration=2.0, n_steps=4)
        model.finalize()
        values, record = solve_model(model)
        assert record.converged
        assert record.total_newton_iterations >= 4


class TestExternalForce:
    def test_nodal_load_scaling_with_curve(self):
        mesh = box_hex(1, 1, 1)
        model = FEModel(mesh)
        model.add_material(LinearElastic(name="mat"))
        model.fix(mesh.nodes_on_plane(2, 0.0), ("ux", "uy", "uz"))
        top = mesh.nodes_on_plane(2, 1.0)
        model.add_nodal_load(top, "uz", -1.0, ramp())
        model.finalize()
        f_half = external_force(model, 0.5)
        f_full = external_force(model, 1.0)
        assert np.isclose(np.abs(f_half).sum() * 2, np.abs(f_full).sum())

    def test_pressure_on_top_face_pushes_down(self):
        mesh = box_hex(1, 1, 1)
        model = FEModel(mesh)
        model.add_material(LinearElastic(name="mat"))
        model.fix(mesh.nodes_on_plane(2, 0.0), ("ux", "uy", "uz"))
        top_faces = [f for f in mesh.boundary_faces()
                     if all(abs(mesh.nodes[n][2] - 1.0) < 1e-9 for n in f)]
        model.add_pressure(top_faces, 1.0)
        model.finalize()
        f = external_force(model, 1.0)
        # Sum of vertical components equals -p * area = -1.
        total_z = sum(
            f[model.dofs.eq(int(n), "uz")]
            for n in mesh.nodes_on_plane(2, 1.0)
            if model.dofs.eq(int(n), "uz") >= 0
        )
        assert np.isclose(total_z, -1.0)

    def test_body_force_total_weight(self):
        mesh = box_hex(2, 2, 2)
        model = FEModel(mesh)
        model.add_material(LinearElastic(density=3.0, name="mat"))
        model.fix(mesh.nodes_on_plane(2, 0.0), ("ux", "uy", "uz"))
        model.add_body_force("box", (0, 0, -1), 2.0)
        model.finalize()
        f = external_force(model, 1.0)
        # Total = rho * g * V minus the share carried by fixed nodes.
        assert f.sum() < 0
        assert abs(f.sum()) <= 3.0 * 2.0 * 1.0 + 1e-9


def _bl_matrix_per_entry(dN, F):
    """The per-entry loop the vectorized ``_bl_matrix`` replaced."""
    n = dN.shape[0]
    BL = np.zeros((6, 3 * n))
    for a in range(n):
        for i in range(3):
            col = 3 * a + i
            BL[0, col] = F[i, 0] * dN[a, 0]
            BL[1, col] = F[i, 1] * dN[a, 1]
            BL[2, col] = F[i, 2] * dN[a, 2]
            BL[3, col] = F[i, 0] * dN[a, 1] + F[i, 1] * dN[a, 0]
            BL[4, col] = F[i, 1] * dN[a, 2] + F[i, 2] * dN[a, 1]
            BL[5, col] = F[i, 0] * dN[a, 2] + F[i, 2] * dN[a, 0]
    return BL


@pytest.mark.parametrize("nnodes", (4, 8))
def test_bl_matrix_matches_per_entry_loop(nnodes):
    from repro.fem.kernels import _bl_matrix

    rng = np.random.default_rng(nnodes)
    for _ in range(200):
        dN = rng.standard_normal((nnodes, 3)) * 10.0 ** rng.integers(-4, 4)
        F = np.eye(3) + rng.standard_normal((3, 3)) * 10.0 ** rng.integers(
            -8, 1)
        got = _bl_matrix(dN, F)
        want = _bl_matrix_per_entry(dN, F)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
