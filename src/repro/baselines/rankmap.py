"""RankMap [Mirhoseini et al.] — the paper's closest prior work.

RankMap also factors ``A ≈ DC`` with sparse ``C`` (OMP-based), but its
dictionary size is chosen by an *error-based criterion only*: the
smallest L that meets ε.  It is platform-oblivious — "the error-based
criteria for selecting the transformation basis in RankMap prevents it
from creating versatile and over-complete dictionaries" (Sec. III) — so
ExtDict matches it exactly when the tuned L* happens to equal L_min
(the Light Field case in Fig. 7) and beats it otherwise.
"""

from __future__ import annotations

from repro.core.exd import exd_transform
from repro.core.transform import TransformedData
from repro.core.tuner import find_min_feasible_size
from repro.utils.validation import check_fraction, check_matrix


def rankmap_transform(a, eps: float, *, seed=None,
                      subset_fraction: float = 0.25,
                      trials: int = 1,
                      workers: int | None = None) -> TransformedData:
    """Error-minimal sparse factorisation: ExD at ``L = L_min``."""
    a = check_matrix(a, "A")
    eps = check_fraction(eps, "eps", inclusive_low=True)
    l_min = find_min_feasible_size(a, eps, seed=seed,
                                   subset_fraction=subset_fraction,
                                   trials=trials)
    transform, stats = exd_transform(a, l_min, eps, seed=seed,
                                     workers=workers)
    # The subset-estimated L_min can occasionally be slightly below the
    # full-data requirement; grow until every column converges.
    grow = l_min
    while not stats.all_converged and grow < a.shape[1]:
        grow = min(max(grow + 1, int(round(grow * 1.25))), a.shape[1])
        transform, stats = exd_transform(a, grow, eps, seed=seed,
                                         workers=workers)
    return TransformedData(dictionary=transform.dictionary,
                           coefficients=transform.coefficients, eps=eps,
                           method="rankmap",
                           meta={"l_min": transform.l})
