"""Newton-Raphson nonlinear driver with time stepping (FEBio Stage 2).

``solve_model`` advances a finalized :class:`~repro.fem.model.FEModel`
through its analysis step, assembling and solving the linearized system
each Newton iteration.  Beyond the solution itself it returns a
:class:`SolveRecord` capturing everything the characterization layer
needs: per-phase wall-clock, iteration counts, linear-solver routing, the
final stiffness pattern, and contact statistics.
"""

from __future__ import annotations

import time

import numpy as np

from ..assembly import (GeometryCache, StateStore, assemble_system,
                        external_force)
from .linear import solve_linear

__all__ = ["NewtonError", "StepRecord", "SolveRecord", "solve_model"]


class NewtonError(RuntimeError):
    """Raised when a time step fails to converge."""


class StepRecord:
    """Per-time-step convergence data."""

    def __init__(self, t, dt):
        self.t = float(t)
        self.dt = float(dt)
        self.newton_iterations = 0
        self.residual_norms = []
        self.linear_solves = []
        self.contact_active = 0
        self.contact_candidates = 0


class SolveRecord:
    """Full record of one Stage-2 solve."""

    def __init__(self, model_name):
        self.model_name = model_name
        self.steps = []
        self.wall_time = 0.0
        self.assembly_time = 0.0
        self.solve_time = 0.0
        self.neq = 0
        self.nnz = 0
        self.matrix = None          # final tangent (CSR), pattern for traces
        self.material_calls = {}
        self.gauss_points_per_assembly = 0
        self.n_assemblies = 0
        self.converged = True

    @property
    def total_newton_iterations(self):
        return sum(s.newton_iterations for s in self.steps)

    @property
    def total_linear_iterations(self):
        return sum(
            info.iterations for s in self.steps for info in s.linear_solves
        )

    def solver_methods(self):
        """Set of linear solver methods used across the solve."""
        return {
            info.method for s in self.steps for info in s.linear_solves
        }

    def summary(self):
        return {
            "model": self.model_name,
            "neq": self.neq,
            "nnz": self.nnz,
            "steps": len(self.steps),
            "newton_iterations": self.total_newton_iterations,
            "linear_iterations": self.total_linear_iterations,
            "wall_time": self.wall_time,
            "assembly_time": self.assembly_time,
            "solve_time": self.solve_time,
            "solvers": sorted(self.solver_methods()),
            "converged": self.converged,
        }


def solve_model(model, progress=None):
    """Run the analysis step of ``model``; returns (values, SolveRecord).

    ``values`` is the full (nnodes, nfields) solution array at the final
    time.  Raises :class:`NewtonError` if any step fails to converge.
    """
    if model.dofs is None:
        model.finalize()
    step = model.step
    record = SolveRecord(model.name)
    record.neq = model.neq

    values = model.new_field_array()
    body_q = model.new_body_vector()
    states = StateStore(model)
    # Per-solve, never on the model (see GeometryCache).
    geometry = GeometryCache()

    t = 0.0
    start = time.perf_counter()
    for istep in range(step.n_steps):
        dt = step.dt
        t_new = t + dt
        step_rec = StepRecord(t_new, dt)
        values_old = values.copy()
        model.apply_prescribed(values, body_q, t_new)
        model.sync_rigid_nodes(values, body_q)
        f_ext = external_force(model, t_new)

        converged = False
        pending = {}
        ref_norm = None
        for it in range(step.max_newton):
            t0 = time.perf_counter()
            K, f_int, pending, report = assemble_system(
                model, values, values_old, body_q, states, dt, t_new,
                geometry,
            )
            record.assembly_time += time.perf_counter() - t0
            record.n_assemblies += 1
            record.gauss_points_per_assembly = report.gauss_points
            for k, v in report.material_calls.items():
                record.material_calls[k] = record.material_calls.get(k, 0) + v
            step_rec.contact_active = report.contact_active
            step_rec.contact_candidates = report.contact_candidates

            residual = f_int - f_ext
            r_norm = float(np.linalg.norm(residual))
            step_rec.residual_norms.append(r_norm)
            if ref_norm is None:
                ref_norm = max(r_norm, float(np.linalg.norm(f_ext)), 1e-30)
            if r_norm <= step.rtol * ref_norm + step.atol:
                converged = True
                record.matrix = K
                record.nnz = K.nnz
                break

            t0 = time.perf_counter()
            du, info = solve_linear(K, -residual, method=step.solver)
            record.solve_time += time.perf_counter() - t0
            step_rec.linear_solves.append(info)
            step_rec.newton_iterations += 1

            if step.line_search:
                du = _line_search(
                    model, values, values_old, body_q, states, f_ext,
                    du, r_norm, dt, t_new, geometry,
                )
            model.scatter_update(values, body_q, du)
            record.matrix = K
            record.nnz = K.nnz
        if not converged:
            record.converged = False
            record.wall_time = time.perf_counter() - start
            record.steps.append(step_rec)
            raise NewtonError(
                f"model {model.name!r}: step {istep + 1} did not converge "
                f"(|R| = {step_rec.residual_norms[-1]:.3e})"
            )
        states.commit(pending)
        record.steps.append(step_rec)
        t = t_new
        if progress is not None:
            progress(istep + 1, step.n_steps, step_rec)
    record.wall_time = time.perf_counter() - start
    return values, record


def _line_search(model, values, values_old, body_q, states, f_ext, du,
                 r_norm0, dt, t, geometry):
    """Backtracking line search on the residual norm (cheap, 2 trials max)."""
    for scale in (1.0, 0.5, 0.25):
        trial_values = values.copy()
        trial_q = body_q.copy()
        model.scatter_update(trial_values, trial_q, scale * du)
        _, f_int, _, _ = assemble_system(
            model, trial_values, values_old, trial_q, states, dt, t,
            geometry,
        )
        if float(np.linalg.norm(f_int - f_ext)) < r_norm0 * 1.5:
            return scale * du
    return 0.25 * du
