"""Element-level residual and stiffness kernels.

Every kernel returns ``(f_int, K, new_state)`` where ``f_int`` is the
internal force (node-major DOF ordering matching the block's physics
fields) and ``K = d f_int / d u``.  The Newton driver solves
``K du = -(f_int - f_ext)``.

These kernels are also mirrored by the trace generators in
:mod:`repro.trace.kernels`: the loop structure here defines the
instruction stream the CPU simulator replays.
"""

from __future__ import annotations

import numpy as np

from .materials.base import strain_tensor_to_voigt
from .quadrature import hex_rule, quad_rule, tet_rule
from .shape import Hex8, Quad4, Tet4, jacobian, jacobian_all, rule_gradients

__all__ = [
    "element_quadrature",
    "solid_element",
    "solid_geometry",
    "biphasic_element",
    "multiphasic_element",
    "fluid_element",
    "pressure_face_load",
]

_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))


def element_quadrature(elem_type):
    """Default (element class, quadrature rule) pair for a volume element."""
    if elem_type == "hex8":
        return Hex8, hex_rule(2)
    if elem_type == "tet4":
        return Tet4, tet_rule(1)
    raise KeyError(f"unknown volume element type {elem_type!r}")


def _b_matrix(dN):
    """Small-strain B matrix (6 x 3n) from physical shape gradients."""
    n = dN.shape[0]
    B = np.zeros((6, 3 * n))
    B[0, 0::3] = dN[:, 0]
    B[1, 1::3] = dN[:, 1]
    B[2, 2::3] = dN[:, 2]
    B[3, 0::3] = dN[:, 1]
    B[3, 1::3] = dN[:, 0]
    B[4, 1::3] = dN[:, 2]
    B[4, 2::3] = dN[:, 1]
    B[5, 0::3] = dN[:, 2]
    B[5, 2::3] = dN[:, 0]
    return B


def _bl_matrix(dN, F):
    """Total-Lagrangian strain-displacement matrix (6 x 3n).

    Column ``3a + i`` of Voigt row ``(j, k)`` is ``F[i, j] * dN[a, k]``,
    plus ``F[i, k] * dN[a, j]`` on the shear rows: every entry is one
    product, or the sum of two, so forming all products at once gives
    the bits the per-entry loop gives.
    """
    P = F[None, :, :, None] * dN[:, None, None, :]  # [a, i, j, k]
    BL = np.empty((6, dN.shape[0], 3))
    for r, (j, k) in enumerate(_VOIGT_PAIRS):
        BL[r] = P[:, :, j, k] if j == k else P[:, :, j, k] + P[:, :, k, j]
    return BL.reshape(6, -1)


def _state_slice(state, gp):
    return {k: v[gp] for k, v in state.items()}


def _state_commit(new_state, pending, gp):
    for k, v in pending.items():
        new_state[k][gp] = v


def solid_geometry(coords, small_strain):
    """Reference geometry of one solid element: ``(dets, dNs, Bs)``.

    The Jacobian determinants and physical shape gradients at every
    Gauss point, plus the small-strain B matrices when *small_strain*
    (else ``Bs`` is None: the finite-strain path builds its matrix from
    the current deformation).  All of it depends on the reference
    coordinates only, so a solve can compute it once per element and
    pass it back to :func:`solid_element` on every assembly.
    """
    cls, rule = _infer_volume(coords)
    dets, dNs = jacobian_all(coords, rule_gradients(cls, rule))
    Bs = [_b_matrix(dN) for dN in dNs] if small_strain else None
    return dets, dNs, Bs


def solid_element(coords, u_e, material, state, dt, t, geometry=None):
    """Displacement-based solid element (small- or finite-strain).

    Parameters
    ----------
    coords:
        ``(n, 3)`` reference nodal coordinates.
    u_e:
        ``(n, 3)`` nodal displacements.
    material:
        Constitutive model; its ``finite_strain`` flag selects the path.
    state:
        Dict of per-Gauss-point state arrays for this element.
    geometry:
        This element's :func:`solid_geometry`, when the caller keeps
        it; computed here otherwise.
    """
    cls, rule = _infer_volume(coords)
    n = cls.nnodes
    f = np.zeros(3 * n)
    K = np.zeros((3 * n, 3 * n))
    new_state = {k: v.copy() for k, v in state.items()}
    if geometry is None:
        geometry = solid_geometry(coords, not material.finite_strain)
    dets, dNs, Bs = geometry
    for gp, (xi, w) in enumerate(rule):
        detJ = float(dets[gp])
        dN = dNs[gp]
        wdet = w * detJ
        if material.finite_strain:
            F = np.eye(3) + u_e.T @ dN
            C = F.T @ F
            S, DD, pending = material.pk2_response(
                C, _state_slice(state, gp), dt, t
            )
            BL = _bl_matrix(dN, F)
            Sv = np.array([S[i, j] for (i, j) in _VOIGT_PAIRS])
            f += wdet * (BL.T @ Sv)
            # Material + geometric stiffness.
            K += wdet * (BL.T @ DD @ BL)
            G = dN @ S @ dN.T  # (n, n)
            K += wdet * np.kron(G, np.eye(3))
        else:
            B = Bs[gp]
            eps = B @ u_e.ravel()
            sig, D, pending = material.small_strain_response(
                eps, _state_slice(state, gp), dt, t
            )
            f += wdet * (B.T @ sig)
            K += wdet * (B.T @ D @ B)
        _state_commit(new_state, pending, gp)
    return f, K, new_state


# Shared rule instances: quadrature data is immutable and identical on
# every construction, so the assembly loop reuses one object per family
# instead of rebuilding point/weight arrays per element.
_HEX_RULE = hex_rule(2)
_TET_RULE = tet_rule(1)


def _infer_volume(coords):
    if coords.shape[0] == 8:
        return Hex8, _HEX_RULE
    if coords.shape[0] == 4:
        return Tet4, _TET_RULE
    raise ValueError(f"cannot infer element type from {coords.shape[0]} nodes")


def biphasic_element(coords, u_e, p_e, u_old, p_old, material, state, dt, t):
    """Equal-order u-p biphasic (poroelastic) element, backward Euler.

    DOF ordering is node-major (ux, uy, uz, p).  Weak form:

    * momentum:   B' (sigma_eff - p m) = f
    * continuity: N' div(u - u_old) + dt * grad(N)' K grad(p) = q

    The resulting tangent is nonsymmetric in this scaling (Kup = -Q,
    Kpu = +Q'), which routes these workloads to the FGMRES/LU path just
    like FEBio's biphasic module routes to PARDISO.
    """
    cls, rule = _infer_volume(coords)
    n = cls.nnodes
    ndof = 4 * n
    f = np.zeros(ndof)
    K = np.zeros((ndof, ndof))
    new_state = {k: v.copy() for k, v in state.items()}
    udofs = np.arange(n * 3).reshape(n, 3)
    udofs = (udofs // 3) * 4 + (udofs % 3)  # node-major remap
    pdofs = np.arange(n) * 4 + 3
    dt_eff = max(dt, 1e-12)
    m = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    for gp, (xi, w) in enumerate(rule):
        N = cls.values(xi)
        grads = cls.gradients(xi)
        _, detJ, dN = jacobian(coords, grads)
        wdet = w * detJ
        B = _b_matrix(dN)
        eps = B @ u_e.ravel()
        eps_old = B @ u_old.ravel()
        p = float(N @ p_e)
        sig_eff, D, pending = material.small_strain_response(
            eps, _state_slice(state, gp), dt, t
        )
        _state_commit(new_state, pending, gp)
        # Momentum rows.
        f_u = wdet * (B.T @ (sig_eff - p * m))
        # Continuity rows.
        vol_rate = float(m @ (eps - eps_old))
        gradp = dN.T @ p_e
        f_p = wdet * (N * vol_rate + dt_eff * (dN @ (material.K @ gradp)))
        f[udofs.ravel()] += f_u
        f[pdofs] += f_p
        # Tangent blocks.
        Kuu = wdet * (B.T @ D @ B)
        Q = wdet * np.outer(B.T @ m, N)  # (3n, n)
        Kpp = wdet * dt_eff * (dN @ material.K @ dN.T)
        K[np.ix_(udofs.ravel(), udofs.ravel())] += Kuu
        K[np.ix_(udofs.ravel(), pdofs)] += -Q
        K[np.ix_(pdofs, udofs.ravel())] += Q.T
        K[np.ix_(pdofs, pdofs)] += Kpp
    return f, K, new_state


def multiphasic_element(coords, u_e, p_e, c_e, u_old, p_old, c_old,
                        material, state, dt, t):
    """Multiphasic element: biphasic + one solute (node-major ux,uy,uz,p,c).

    Solute transport: N'(c - c_old) + dt grad(N)' D grad(c) = 0, with an
    osmotic coupling term feeding concentration into the momentum balance
    through an effective pressure ``p + phi * R T c`` (phi =
    ``osmotic_coeff``).
    """
    cls, rule = _infer_volume(coords)
    n = cls.nnodes
    ndof = 5 * n
    f = np.zeros(ndof)
    K = np.zeros((ndof, ndof))
    new_state = {k: v.copy() for k, v in state.items()}
    udofs = np.arange(n * 3).reshape(n, 3)
    udofs = (udofs // 3) * 5 + (udofs % 3)
    pdofs = np.arange(n) * 5 + 3
    cdofs = np.arange(n) * 5 + 4
    dt_eff = max(dt, 1e-12)
    m = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    phi = material.osmotic_coeff
    for gp, (xi, w) in enumerate(rule):
        N = cls.values(xi)
        grads = cls.gradients(xi)
        _, detJ, dN = jacobian(coords, grads)
        wdet = w * detJ
        B = _b_matrix(dN)
        eps = B @ u_e.ravel()
        eps_old = B @ u_old.ravel()
        p = float(N @ p_e)
        c = float(N @ c_e)
        c_prev = float(N @ c_old)
        sig_eff, D, pending = material.small_strain_response(
            eps, _state_slice(state, gp), dt, t
        )
        _state_commit(new_state, pending, gp)
        p_total = p + phi * c
        f_u = wdet * (B.T @ (sig_eff - p_total * m))
        vol_rate = float(m @ (eps - eps_old))
        gradp = dN.T @ p_e
        f_p = wdet * (N * vol_rate + dt_eff * (dN @ (material.K @ gradp)))
        gradc = dN.T @ c_e
        f_c = wdet * (N * (c - c_prev) + dt_eff * (dN @ (material.D @ gradc)))
        f[udofs.ravel()] += f_u
        f[pdofs] += f_p
        f[cdofs] += f_c
        Kuu = wdet * (B.T @ D @ B)
        Q = wdet * np.outer(B.T @ m, N)
        Kpp = wdet * dt_eff * (dN @ material.K @ dN.T)
        Mcc = wdet * np.outer(N, N)
        Kcc = Mcc + wdet * dt_eff * (dN @ material.D @ dN.T)
        K[np.ix_(udofs.ravel(), udofs.ravel())] += Kuu
        K[np.ix_(udofs.ravel(), pdofs)] += -Q
        K[np.ix_(udofs.ravel(), cdofs)] += -phi * Q
        K[np.ix_(pdofs, udofs.ravel())] += Q.T
        K[np.ix_(pdofs, pdofs)] += Kpp
        K[np.ix_(cdofs, cdofs)] += Kcc
    return f, K, new_state


def fluid_element(coords, v_e, e_e, v_old, material, state, dt, t,
                  steady=False):
    """FEBio-style fluid element with velocity + dilatation DOFs.

    Node-major (vx, vy, vz, ef).  Viscous diffusion + weak-compressibility
    penalty; transient runs add inertia and a Picard-linearized convective
    term (nonsymmetric), steady runs drop both.
    """
    cls, rule = _infer_volume(coords)
    n = cls.nnodes
    ndof = 4 * n
    f = np.zeros(ndof)
    K = np.zeros((ndof, ndof))
    vdofs = np.arange(n * 3).reshape(n, 3)
    vdofs = (vdofs // 3) * 4 + (vdofs % 3)
    edofs = np.arange(n) * 4 + 3
    dt_eff = max(dt, 1e-12)
    mu = material.viscosity
    kappa = material.bulk_modulus
    rho = material.density
    for _, (xi, w) in enumerate(rule):
        N = cls.values(xi)
        grads = cls.gradients(xi)
        _, detJ, dN = jacobian(coords, grads)
        wdet = w * detJ
        v = v_e.T @ N          # velocity at the point
        v_prev = v_old.T @ N
        L = v_e.T @ dN         # velocity gradient (3, 3)
        e = float(N @ e_e)
        div_v = float(np.trace(L))
        # Viscous: mu * grad(w) : (grad(v) + grad(v)^T)
        D_sym = L + L.T
        f_v = wdet * mu * (dN @ D_sym.T).ravel()
        # Pressure (dilatation) force: -kappa * e * div(w).
        f_v += wdet * (-kappa * e) * dN.ravel()
        # Dilatation equation: N (e - div v) -> penalty projection.
        f_e = wdet * (N * (e - div_v))
        if not steady:
            accel = (v - v_prev) / dt_eff
            f_v += wdet * rho * np.outer(N, accel).ravel()
            if material.convective:
                conv = L @ v_prev  # Picard: (v_old . grad) v
                f_v += wdet * rho * np.outer(N, conv).ravel()
        f[vdofs.ravel()] += f_v
        f[edofs] += f_e
        # Tangent.
        Kvisc = np.zeros((3 * n, 3 * n))
        dd = dN @ dN.T  # (n, n)
        for i in range(3):
            for j in range(3):
                Kvisc[i::3, j::3] += mu * np.outer(dN[:, j], dN[:, i])
        for i in range(3):
            Kvisc[i::3, i::3] += mu * dd
        Kve = -kappa * np.outer(dN.ravel(), N)  # (3n, n)
        Kev = -np.outer(N, dN.ravel())          # (n, 3n)
        Kee = np.outer(N, N)
        blockv = wdet * Kvisc
        if not steady:
            Mn = np.outer(N, N)
            for i in range(3):
                blockv[i::3, i::3] += wdet * rho / dt_eff * Mn
            if material.convective:
                # d(conv)/dv: (v_old . grad) dv
                adv = dN @ v_prev  # (n,)
                for i in range(3):
                    blockv[i::3, i::3] += wdet * rho * np.outer(N, adv)
        K[np.ix_(vdofs.ravel(), vdofs.ravel())] += blockv
        K[np.ix_(vdofs.ravel(), edofs)] += wdet * Kve
        K[np.ix_(edofs, vdofs.ravel())] += wdet * Kev
        K[np.ix_(edofs, edofs)] += wdet * Kee
    return f, K, {}


def pressure_face_load(face_coords, pressure):
    """Consistent nodal forces of a uniform pressure on a quad4 face.

    Dead load against the *reference* outward normal: returns a (4, 3)
    array of nodal forces (to be added to f_ext on the displacement or
    velocity DOFs of the face nodes).
    """
    rule = quad_rule(2)
    forces = np.zeros((4, 3))
    for xi, w in rule:
        N = Quad4.values(xi)
        dN = Quad4.gradients(xi)
        tang = face_coords.T @ dN  # (3, 2) surface tangents
        normal = np.cross(tang[:, 0], tang[:, 1])
        # |normal| = surface Jacobian; direction = outward for CCW faces.
        forces += -pressure * w * np.outer(N, normal)
    return forces
