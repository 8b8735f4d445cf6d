"""Global assembly of the residual and tangent stiffness.

The assembler walks every element block, calls the matching kernel from
:mod:`repro.fem.kernels`, and scatters through the model's DOF expansion
lists (which fold rigid-body kinematics into the reduced equation space).
It also applies external loads, contact, and rigid-joint penalties.

The returned :class:`AssemblyReport` records the phase structure (element
loop sizes, contact candidate counts, solver routing hints) consumed by
the trace generators.
"""

from __future__ import annotations

import numpy as np

from ..sparse import COOBuilder
from .dofs import FIELDS
from .kernels import (
    biphasic_element,
    fluid_element,
    multiphasic_element,
    pressure_face_load,
    solid_element,
    solid_geometry,
)

__all__ = ["AssemblyReport", "GeometryCache", "StateStore", "assemble_system",
           "external_force"]


class AssemblyReport:
    """Structural record of one assembly pass (consumed by tracers)."""

    def __init__(self):
        self.elements_by_block = {}
        self.gauss_points = 0
        self.contact_candidates = 0
        self.contact_active = 0
        self.nonsymmetric = False
        self.material_calls = {}

    def note_block(self, block, material):
        self.elements_by_block[block.name] = {
            "nelem": block.nelem,
            "physics": block.physics,
            "material": type(material).__name__,
        }


class StateStore:
    """Per-element material state, keyed by (block name, element index)."""

    def __init__(self, model):
        self._store = {}
        for block in model.mesh.blocks:
            if model.is_rigid_block(block) or block.physics == "fluid":
                continue
            material = model.material_of(block)
            layout = material.state_layout()
            if not layout:
                continue
            ngp = 8 if block.elem_type == "hex8" else 1
            self._store[block.name] = [
                material.init_state(ngp) for _ in range(block.nelem)
            ]

    def get(self, block_name, e):
        blk = self._store.get(block_name)
        if blk is None:
            return {}
        return blk[e]

    def set_pending(self, pending, block_name, e, new_state):
        if block_name in self._store and new_state:
            pending[(block_name, e)] = new_state

    def commit(self, pending):
        """Accept pending state updates (called on Newton convergence)."""
        for (block_name, e), new_state in pending.items():
            self._store[block_name][e] = new_state

    def clone_element_states(self):
        """Snapshot used by tests to verify functional state handling."""
        return {
            name: [
                {k: v.copy() for k, v in elem.items()} for elem in states
            ]
            for name, states in self._store.items()
        }


class GeometryCache:
    """Reference geometry of every solid element, computed once per solve.

    An element's Jacobian determinants, physical shape gradients and
    small-strain B matrices depend only on its reference coordinates,
    which no Newton iteration changes, so :func:`solve_model` keeps one
    cache for the duration of one solve and hands it to every assembly.
    The values are the same bits :func:`solid_element` computes for
    itself (same functions, same inputs); they are stored read-only.

    The cache is deliberately not kept on the model: runners memoize the
    model with its solve record, and a model-level cache would keep
    every element's geometry alive with it.
    """

    def __init__(self):
        self._elements = {}

    def solid(self, block, e, coords, material):
        """:func:`solid_geometry` of element *e* of *block*."""
        key = (block.name, e)
        geometry = self._elements.get(key)
        if geometry is None:
            dets, dNs, Bs = solid_geometry(coords,
                                           not material.finite_strain)
            for a in (dets, *dNs, *(Bs or ())):
                a.setflags(write=False)
            geometry = self._elements[key] = (dets, dNs, Bs)
        return geometry


def _gather(values, conn, field_names):
    cols = [FIELDS.index(f) for f in field_names]
    return values[np.ix_(conn, cols)]


def _scatter(model, conn, field_names, f_e, K_e, rhs, builder):
    """Scatter an element contribution through DOF expansion lists."""
    # Fast path: only rigid slave nodes expand onto foreign equations,
    # so an element touching none reads its equation numbers straight
    # from the DOF table — no per-DOF expansion lists.  (Same triplets,
    # same order: a unit-weight expansion contributes 1.0*1.0*K == K.)
    rigid_map = model._rigid_node_body
    if not rigid_map or not any(int(node) in rigid_map for node in conn):
        eqs = model.dofs.eqs_for(conn, field_names)
        keep = eqs >= 0
        if keep.any():
            np.add.at(rhs, eqs[keep], f_e[keep])
            builder.add_block(eqs, eqs, K_e)
        return
    expansions = []
    for node in conn:
        for field in field_names:
            expansions.append(model.expansion(int(node), field))
    # General path: flatten the expansion lists once, then form every
    # (eq_i, eq_j) contribution as one outer-product block.  The
    # flattened order (local dof asc, expansion entries in list order)
    # and the value expression ((w_i * w_j) * K_e[i, j]) are exactly
    # the scalar quadruple loop's, so duplicate summation — which is
    # order-sensitive at float precision — is unchanged bit for bit.
    flat_dof = []
    flat_eq = []
    flat_w = []
    for i, exp_i in enumerate(expansions):
        for (eq_i, w_i) in exp_i:
            flat_dof.append(i)
            flat_eq.append(eq_i)
            flat_w.append(w_i)
    if not flat_dof:
        return
    flat_dof = np.asarray(flat_dof, dtype=np.int64)
    flat_eq = np.asarray(flat_eq, dtype=np.int64)
    flat_w = np.asarray(flat_w, dtype=np.float64)
    np.add.at(rhs, flat_eq, flat_w * f_e[flat_dof])
    m = flat_eq.size
    weights = flat_w[:, None] * flat_w[None, :]
    values = weights * K_e[np.ix_(flat_dof, flat_dof)]
    builder.add_triplets(
        np.repeat(flat_eq, m), np.tile(flat_eq, m), values.ravel())


def assemble_system(model, values, values_old, body_q, states, dt, t,
                    geometry=None):
    """Assemble the tangent CSR matrix and internal-force residual.

    Parameters
    ----------
    model:
        A finalized :class:`~repro.fem.model.FEModel`.
    values, values_old:
        Full (nnodes, nfields) value arrays at the current iterate and the
        previous converged step.
    body_q:
        Rigid-body DOF matrix (nbodies, 6).
    states:
        :class:`StateStore` with committed material state.
    dt, t:
        Time increment and current time.
    geometry:
        Optional :class:`GeometryCache` shared by the assemblies of one
        solve; without one every element's geometry is recomputed.

    Returns
    -------
    (K, f_int, pending_states, report)
    """
    builder = COOBuilder(model.neq)
    f_int = np.zeros(model.neq)
    pending = {}
    report = AssemblyReport()

    for block in model.mesh.blocks:
        material = model.material_of(block)
        if model.is_rigid_block(block):
            continue  # rigid blocks carry no elastic stiffness
        report.note_block(block, material)
        fields = model.block_fields(block)
        ngp = 8 if block.elem_type == "hex8" else 1
        report.gauss_points += ngp * block.nelem
        key = type(material).__name__
        report.material_calls[key] = (
            report.material_calls.get(key, 0) + ngp * block.nelem
        )
        for e in range(block.nelem):
            conn = block.connectivity[e]
            coords = model.mesh.nodes[conn]
            if block.physics == "solid":
                u_e = _gather(values, conn, ("ux", "uy", "uz"))
                f_e, K_e, new_state = solid_element(
                    coords, u_e, material, states.get(block.name, e), dt, t,
                    None if geometry is None
                    else geometry.solid(block, e, coords, material),
                )
            elif block.physics == "biphasic":
                u_e = _gather(values, conn, ("ux", "uy", "uz"))
                p_e = values[conn, FIELDS.index("p")]
                u_o = _gather(values_old, conn, ("ux", "uy", "uz"))
                p_o = values_old[conn, FIELDS.index("p")]
                f_e, K_e, new_state = biphasic_element(
                    coords, u_e, p_e, u_o, p_o, material,
                    states.get(block.name, e), dt, t,
                )
                report.nonsymmetric = True
            elif block.physics == "multiphasic":
                u_e = _gather(values, conn, ("ux", "uy", "uz"))
                p_e = values[conn, FIELDS.index("p")]
                c_e = values[conn, FIELDS.index("c")]
                u_o = _gather(values_old, conn, ("ux", "uy", "uz"))
                p_o = values_old[conn, FIELDS.index("p")]
                c_o = values_old[conn, FIELDS.index("c")]
                f_e, K_e, new_state = multiphasic_element(
                    coords, u_e, p_e, c_e, u_o, p_o, c_o, material,
                    states.get(block.name, e), dt, t,
                )
                report.nonsymmetric = True
            elif block.physics == "fluid":
                v_e = _gather(values, conn, ("vx", "vy", "vz"))
                e_e = values[conn, FIELDS.index("ef")]
                v_o = _gather(values_old, conn, ("vx", "vy", "vz"))
                steady = getattr(material, "steady", False)
                f_e, K_e, new_state = fluid_element(
                    coords, v_e, e_e, v_o, material, {}, dt, t, steady=steady
                )
                report.nonsymmetric = True
            else:
                raise ValueError(f"unknown physics {block.physics!r}")
            states.set_pending(pending, block.name, e, new_state)
            _scatter(model, conn, fields, f_e, K_e, f_int, builder)

    _assemble_contact(model, values, f_int, builder, report)
    _assemble_joints(model, body_q, f_int, builder)

    return builder.to_csr(), f_int, pending, report


def _assemble_contact(model, values, f_int, builder, report):
    coords = model.mesh.nodes
    u = values[:, 0:3]
    for contact in model.contacts:
        result = contact.evaluate(coords, u)
        if len(result) == 3:
            forces, stiffness, active = result
            report.contact_active += active
            report.contact_candidates += len(contact.nodes)
            pair_stiffness = {
                (node, node): block for node, block in stiffness.items()
            }
        else:
            forces, pair_stiffness, active, candidates = result
            report.contact_active += active
            report.contact_candidates += candidates
        for node, force in forces.items():
            for i, field in enumerate(("ux", "uy", "uz")):
                for (eq, w) in model.expansion(node, field):
                    # `force` is the energy gradient dE/du — the internal
                    # force term of the penalty spring.
                    f_int[eq] += w * force[i]
        for (ni, nj), block in pair_stiffness.items():
            for i, fi in enumerate(("ux", "uy", "uz")):
                for (eq_i, w_i) in model.expansion(ni, fi):
                    for j, fj in enumerate(("ux", "uy", "uz")):
                        for (eq_j, w_j) in model.expansion(nj, fj):
                            builder.add(eq_i, eq_j, w_i * w_j * block[i, j])


def _assemble_joints(model, body_q, f_int, builder):
    if not model.rigid_joints:
        return
    index_of = {body.name: b for b, body in enumerate(model.rigid_bodies)}
    for joint in model.rigid_joints:
        C = joint.constraint_rows()
        qa = body_q[index_of[joint.body_a.name]]
        qb = (
            body_q[index_of[joint.body_b.name]]
            if joint.body_b is not None
            else np.zeros(6)
        )
        q = np.concatenate([qa, qb])
        eqs = np.concatenate(
            [
                joint.body_a.eqs,
                joint.body_b.eqs if joint.body_b is not None
                else np.full(6, -1, dtype=np.int64),
            ]
        )
        Kj = joint.penalty * (C.T @ C)
        fj = joint.penalty * (C.T @ (C @ q))
        keep = eqs >= 0
        idx = np.flatnonzero(keep)
        np.add.at(f_int, eqs[idx], fj[idx])
        builder.add_block(eqs, eqs, Kj)


def external_force(model, t):
    """Assemble the external force vector at time ``t``."""
    f_ext = np.zeros(model.neq)
    for load in model.nodal_loads:
        value = load.value_at(t)
        for node in load.nodes:
            for (eq, w) in model.expansion(int(node), load.field):
                f_ext[eq] += w * value
    for load in model.pressure_loads:
        p = load.value_at(t)
        if p == 0.0:
            continue
        fields = load.fields
        for face in load.faces:
            face_coords = model.mesh.nodes[list(face)]
            forces = pressure_face_load(face_coords, p)
            for a, node in enumerate(face):
                for i, field in enumerate(fields):
                    for (eq, w) in model.expansion(node, field):
                        f_ext[eq] += w * forces[a, i]
    for bf in model.body_forces:
        value = bf.value_at(t)
        if value == 0.0:
            continue
        block = model.mesh.block(bf.block_name)
        material = model.material_of(block)
        direction = bf.direction * value * material.density
        fields = ("ux", "uy", "uz") if block.physics != "fluid" else (
            "vx", "vy", "vz")
        from .kernels import element_quadrature
        from .shape import jacobian as _jac

        cls, rule = element_quadrature(block.elem_type)
        for e in range(block.nelem):
            conn = block.connectivity[e]
            coords = model.mesh.nodes[conn]
            for xi, w in rule:
                N = cls.values(xi)
                _, detJ, _ = _jac(coords, cls.gradients(xi))
                for a, node in enumerate(conn):
                    for i, field in enumerate(fields):
                        for (eq, wexp) in model.expansion(int(node), field):
                            f_ext[eq] += wexp * w * detJ * N[a] * direction[i]
    return f_ext
