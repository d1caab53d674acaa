"""Distributed proximal-Adagrad LASSO on a local Gram worker.

The smooth gradient is ``2(Gx − Aᵀy)`` and the ℓ1 part enters through
the proximal soft-threshold with weight λ.  The per-iteration
schedule matches Algorithm 2 plus two scalars in one allreduce for the
stopping rule: Adagrad and the prox are coordinate-wise, so optimiser
state stays fully local to each rank's column block — no extra vector
traffic beyond the Gram update's ``min(M, L)`` words.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.errors import ValidationError
from repro.solvers.adagrad import AdagradState
from repro.solvers.lasso import LassoResult, soft_threshold
from repro.utils.validation import check_positive_int

#: Absolute floor of the stopping rule's denominator.  The documented
#: criterion is *relative* — ``‖Δx‖ ≤ tol·‖x_new‖`` — and the floor only
#: guards the exact-zero iterate; it must sit far below any solution
#: magnitude of interest so small-norm solutions still stop on relative
#: change (a floor of 1.0 would silently turn the test absolute
#: whenever ``‖x‖ < 1``).
NORM_FLOOR = 1e-12


def regression_program(comm, worker_factory, y: np.ndarray, lam: float,
                       *, lr: float = 0.1, max_iter: int = 500,
                       tol: float = 1e-6):
    """Rank program: distributed proximal gradient descent.

    ``y`` (length M) is broadcast once, each rank forms its block of
    ``Aᵀy`` locally, then iterates Gram updates.  ``lam`` weights the
    ℓ1 prox.
    """
    worker = worker_factory(comm)
    rank = comm.Get_rank()
    y = comm.bcast(np.asarray(y, dtype=np.float64) if rank == 0 else None,
                   root=0)
    aty_i = worker.adjoint_data_apply(y)
    n_i = worker.local_n
    x_i = np.zeros(n_i)
    adagrad = AdagradState(max(n_i, 1), lr=lr)
    history: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        gx_i = worker.apply(x_i)
        grad_i = 2.0 * (gx_i - aty_i)
        comm.charge_flops(2 * n_i)
        if n_i:
            step = adagrad.step(grad_i)
            if lam:
                rates = adagrad.effective_rates()
                x_new = soft_threshold(x_i - step, lam * rates)
            else:
                x_new = x_i - step
            comm.charge_flops(6 * n_i)
        else:
            x_new = x_i
        # Global relative change: two scalars in one allreduce.
        local = np.array([float(np.sum((x_new - x_i) ** 2)),
                          float(np.sum(x_new ** 2))])
        comm.charge_flops(4 * n_i)
        totals = comm.allreduce(local, op="sum")
        change = float(np.sqrt(totals[0])) / \
            max(float(np.sqrt(totals[1])), NORM_FLOOR)
        history.append(change)
        x_i = x_new
        if change <= tol:
            converged = True
            break
    blocks = comm.gather(x_i, root=0)
    if rank == 0:
        return np.concatenate(blocks), it, converged, history
    return None


def distributed_lasso(cluster, worker_factory, y: np.ndarray, lam: float, *,
                      lr: float = 0.1, max_iter: int = 500,
                      tol: float = 1e-6) -> tuple[LassoResult, object]:
    """Distributed LASSO: ``min ‖Ax−y‖² + λ‖x‖₁`` on the emulated cluster.

    Returns ``(LassoResult, SPMDResult)`` — the latter carries simulated
    time/energy for the Fig. 9 comparison.
    """
    from repro.mpi.runtime import run_spmd

    check_positive_int(max_iter, "max_iter")
    if lam < 0:
        raise ValidationError(f"lam must be >= 0, got {lam}")
    with obs.span("solver.distributed"):
        result = run_spmd(0, regression_program, worker_factory,
                          np.asarray(y, dtype=np.float64), lam,
                          lr=lr, max_iter=max_iter, tol=tol,
                          cluster=cluster)
    x, iterations, converged, history = result.returns[0]
    obs.inc("solver.distributed.runs")
    obs.inc("solver.distributed.iterations", iterations)
    if converged:
        obs.inc("solver.distributed.converged")
    return (LassoResult(x=x, iterations=iterations, converged=converged,
                        history=history), result)
