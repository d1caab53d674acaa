"""Tests for α(L) estimation (Sec. VII) and the automated tuner."""

import numpy as np
import pytest

from repro import observability as obs
from repro.core import (
    CostModel,
    ExtDict,
    alpha_curve,
    estimate_alpha_from_subsets,
    find_min_feasible_size,
    measure_alpha,
    measure_alpha_batch,
    tune_dictionary_size,
)
from repro.core import tuner
from repro.errors import TuningError, ValidationError
from repro.linalg import omp
from repro.online import sketch
from repro.platform import RbfRatios, platform_by_name
from repro.store.column_store import take_columns
from repro.utils.rng import as_generator, derive_seed


@pytest.fixture(scope="module")
def data():
    from repro.data.subspaces import union_of_subspaces
    a, model = union_of_subspaces(40, 400, n_subspaces=4, dim=3,
                                  noise=0.01, seed=21)
    return a, model


class TestMeasureAlpha:
    def test_mean_std_over_trials(self, data):
        a, _ = data
        est = measure_alpha(a, 60, 0.1, trials=3, seed=0)
        assert len(est.values) == 3
        assert est.mean > 0
        assert est.std >= 0
        assert est.feasible

    def test_small_dictionary_infeasible(self, data):
        a, _ = data
        est = measure_alpha(a, 2, 0.01, seed=0)
        assert not est.feasible

    def test_infeasible_size_still_reports_alpha(self, data):
        """The Fig. 4-6 curves plot α below L_min; only strict
        estimates, which the tuners discard, leave it out."""
        a, _ = data
        est = measure_alpha(a, 2, 0.01, trials=2, seed=0)
        assert not est.feasible
        assert len(est.values) == 2 and est.mean > 0
        strict = measure_alpha_batch(a, [(None, 2, 0)], 0.01, trials=2,
                                     strict=True)[0]
        assert not strict.feasible
        assert strict.values == []

    def test_strict_keeps_feasible_alphas(self, data):
        a, _ = data
        plan = [(None, 60, 0), (np.arange(200), 80, 1)]
        assert measure_alpha_batch(a, plan, 0.1, trials=2, strict=True) \
            == measure_alpha_batch(a, plan, 0.1, trials=2)

    def test_alpha_bounded_by_model(self, data):
        a, model = data
        est = measure_alpha(a, 100, 0.05, seed=0)
        # Sec. VII: α ≤ Σ Kᵢnᵢ/N (+1 slack for noise).
        assert est.mean <= model.density_upper_bound(a.shape[1]) + 1.5

    def test_error_computed_on_request(self, data):
        a, _ = data
        est = measure_alpha(a, 60, 0.1, seed=0, compute_error=True)
        assert est.mean_error <= 0.1 + 1e-9


class TestAlphaCurve:
    def test_decreasing_beyond_lmin(self, data):
        a, _ = data
        curve = alpha_curve(a, [40, 80, 160], 0.05, trials=2, seed=0)
        means = [c.mean for c in curve]
        assert means[0] >= means[-1]

    def test_identity_limit(self, data):
        """At L = N the code is a_i = D e_i: α(N) = 1 (Sec. VII)."""
        a, _ = data
        sub = a[:, :80]
        est = measure_alpha(sub, 80, 0.05, seed=0)
        assert est.mean <= 2.5  # near the e_i limit (noise adds slack)


class TestSubsetEstimation:
    def test_converges_and_estimates(self, data):
        a, _ = data
        res = estimate_alpha_from_subsets(a, [40, 80], 0.1, seed=0,
                                          subset_fractions=(0.2, 0.4, 0.8),
                                          threshold=0.35)
        assert res.subset_sizes == sorted(res.subset_sizes)
        assert set(res.final_alpha) == {40, 80}
        assert all(v > 0 for v in res.final_alpha.values())

    def test_subset_estimate_close_to_full(self, data):
        a, _ = data
        full = measure_alpha(a, 80, 0.1, trials=2, seed=1).mean
        res = estimate_alpha_from_subsets(a, [80], 0.1, seed=0,
                                          subset_fractions=(0.3,))
        est = res.final_alpha[80]
        assert abs(est - full) / full < 0.35  # paper reports <14% at 10%

    def test_invalid_fractions(self, data):
        a, _ = data
        with pytest.raises(ValidationError):
            estimate_alpha_from_subsets(a, [40], 0.1,
                                        subset_fractions=(0.0,))
        with pytest.raises(ValidationError):
            estimate_alpha_from_subsets(a, [40], 0.1, subset_fractions=())

    def test_clamped_fractions_keep_two_subsets(self):
        """Regression: with N=40 and max L=16 the fractions
        (0.05, 0.1, 0.2) all clamp to 17 columns and the discrepancy
        test silently never ran; the planner must add a second,
        larger subset whenever N allows one."""
        from repro.data.subspaces import union_of_subspaces
        a, _ = union_of_subspaces(12, 40, n_subspaces=2, dim=2,
                                  noise=0.01, seed=9)
        res = estimate_alpha_from_subsets(
            a, [8, 16], 0.2, seed=0, subset_fractions=(0.05, 0.1, 0.2),
            threshold=0.0)  # impossible threshold -> exhaust the plan
        assert len(set(res.subset_sizes)) >= 2
        assert res.subset_sizes == sorted(set(res.subset_sizes))
        assert all(s > 16 for s in res.subset_sizes)

    def test_single_subset_plan_warns(self):
        """When N leaves room for only one subset above max(sizes),
        the estimator must warn instead of silently skipping the
        discrepancy cross-validation."""
        from repro.data.subspaces import union_of_subspaces
        a, _ = union_of_subspaces(12, 20, n_subspaces=2, dim=2,
                                  noise=0.01, seed=9)
        with pytest.warns(UserWarning, match="single-subset"):
            res = estimate_alpha_from_subsets(a, [19], 0.5, seed=0,
                                              subset_fractions=(0.5,))
        assert res.subset_sizes == [20]
        assert not res.converged

    def test_workers_match_serial(self, data):
        a, _ = data
        base = estimate_alpha_from_subsets(a, [40, 80], 0.1, seed=0,
                                           subset_fractions=(0.2, 0.4))
        par = estimate_alpha_from_subsets(a, [40, 80], 0.1, seed=0,
                                          subset_fractions=(0.2, 0.4),
                                          workers=2)
        assert base.subset_sizes == par.subset_sizes
        assert base.curves == par.curves
        assert base.final_alpha == par.final_alpha


def _reference_min_feasible(a, eps, *, seed, subset_fraction=0.25,
                            trials=1):
    """Doubling + bisection probing with ``measure_alpha(...).feasible``.

    Returns ``(L_min, probes)``.
    """
    n = a.shape[1]
    order = as_generator(seed).permutation(n)
    sub = take_columns(a, order[:max(min(n, round(subset_fraction * n)),
                                     2)])
    probes = []

    def feasible(l):
        nonlocal sub
        if 2 * l > sub.shape[1]:
            sub = take_columns(a, order[:min(max(2 * l, sub.shape[1]), n)])
        if l > sub.shape[1]:
            return False
        probes.append(l)
        return measure_alpha(sub, l, eps, trials=trials,
                             seed=derive_seed(seed, 1, l)).feasible

    lo, hi, l = 1, None, min(8, n)
    while l <= n:
        if feasible(l):
            hi = l
            break
        lo, l = l, 2 * l
    if hi is None:
        assert feasible(n)
        hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi, probes


@pytest.fixture(scope="module")
def datasets(data):
    from repro.data import salina_like
    return {"union": data[0], "salinas": salina_like(n=768, seed=5)[0]}


def _count_panels(monkeypatch):
    """Count the ``DᵀA`` panels every encode of this test consumes."""
    count = [0]
    real = omp.iter_panel_dta

    def counted(d, a):
        for panel in real(d, a):
            count[0] += 1
            yield panel

    monkeypatch.setattr(omp, "iter_panel_dta", counted)
    return count


class TestFindMinFeasible:
    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("dataset", ["union", "salinas"])
    def test_matches_reference_bisection(self, datasets, dataset, eps,
                                         trials):
        a = datasets[dataset]
        expected, probes = _reference_min_feasible(a, eps, seed=3,
                                                   trials=trials)
        with obs.observed():
            got = find_min_feasible_size(a, eps, seed=3, trials=trials)
            counted = obs.REGISTRY.counter("tuner.feasibility_probes")
        assert got == expected
        assert counted == len(probes)

    def test_store_input_matches_reference(self, data, tmp_path):
        from repro.store import ColumnStore

        a, _ = data
        store = ColumnStore.from_matrix(tmp_path / "a.store", a,
                                        chunk_width=64)
        expected, _ = _reference_min_feasible(a, 0.1, seed=8, trials=2)
        assert find_min_feasible_size(store, 0.1, seed=8, trials=2) \
            == expected

    def test_infeasible_probe_encodes_one_panel(self, monkeypatch):
        """Every probe below is infeasible on a 1024-column subset (4
        panels); each stops at its first panel."""
        a = np.random.default_rng(2).standard_normal((30, 4096))
        panels = _count_panels(monkeypatch)
        with obs.observed(), pytest.raises(TuningError):
            find_min_feasible_size(a, 0.001, seed=0, max_size=2)
        probes = obs.REGISTRY.counter("tuner.feasibility_probes")
        assert probes == 2
        assert panels[0] == probes

    def test_result_is_feasible_and_tight(self, data):
        a, _ = data
        l_min = find_min_feasible_size(a, 0.1, seed=0,
                                       subset_fraction=0.5, trials=2)
        # The subset estimate can undershoot the full-data requirement
        # slightly (the paper grows L when that happens); a 50% margin
        # must always be feasible, and L_min must not be trivially small.
        est = measure_alpha(a, int(np.ceil(1.5 * l_min)), 0.1, seed=3)
        assert est.feasible
        assert l_min >= 4  # 4 subspaces of dim 3 need >= ~12 atoms

    def test_impossible_tolerance_raises(self, rng):
        # Full-rank iid Gaussian data with a tiny max_size cannot meet
        # a tight tolerance.
        a = rng.standard_normal((30, 60))
        with pytest.raises(TuningError):
            find_min_feasible_size(a, 0.001, seed=0, max_size=4)


class TestSubsetArgumentValidation:
    """Bad subset arguments raise ValidationError before any encode."""

    @pytest.fixture(autouse=True)
    def no_encodes(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("an encode ran before validation")

        monkeypatch.setattr(omp, "_encode_range", refuse)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 3.0, float("nan")])
    def test_subset_fraction(self, data, fraction):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        calls = [
            lambda: find_min_feasible_size(a, 0.1, seed=0,
                                           subset_fraction=fraction),
            lambda: tune_dictionary_size(a, 0.1, model, seed=0,
                                         subset_fraction=fraction),
            lambda: tune_dictionary_size(a, 0.1, model, seed=0,
                                         candidates=[40],
                                         subset_fraction=fraction),
            lambda: sketch.tune_dictionary_size_sketched(
                a, 0.1, model, seed=0, candidates=[40],
                subset_fraction=fraction),
            lambda: ExtDict(eps=0.1, subset_fraction=fraction),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="subset_fraction"):
                call()

    @pytest.mark.parametrize("max_size", [0, -3, 2.5])
    def test_max_size(self, data, max_size):
        a, _ = data
        with pytest.raises(ValidationError, match="max_size"):
            find_min_feasible_size(a, 0.1, seed=0, max_size=max_size)


class TestTuner:
    def test_picks_feasible_minimum_cost(self, data):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        res = tune_dictionary_size(a, 0.1, model, seed=0,
                                   candidates=[40, 80, 160])
        costs = {l: c for l, _, _, c in res.table}
        assert res.best_size in costs
        assert costs[res.best_size] == min(costs.values())

    def test_platform_awareness(self, data):
        """A compute-rich platform with free communication prefers larger
        (sparser) dictionaries than a communication-starved one."""
        a, _ = data
        cluster = platform_by_name("2x8")
        cheap_comm = CostModel(cluster, rbf=RbfRatios(time=0.0, energy=0.0))
        dear_comm = CostModel(cluster,
                              rbf=RbfRatios(time=1e4, energy=1e4))
        res_cheap = tune_dictionary_size(a, 0.1, cheap_comm, seed=0,
                                         candidates=[40, 80, 160])
        res_dear = tune_dictionary_size(a, 0.1, dear_comm, seed=0,
                                        candidates=[40, 80, 160])
        assert res_cheap.best_size >= res_dear.best_size

    def test_memory_objective(self, data):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        res = tune_dictionary_size(a, 0.1, model, objective="memory",
                                   seed=0, candidates=[40, 80, 160])
        assert res.objective == "memory"
        assert res.best_size in (40, 80, 160)

    def test_default_candidates_generated(self, data):
        a, _ = data
        model = CostModel(platform_by_name("1x1"))
        res = tune_dictionary_size(a, 0.15, model, seed=0,
                                   subset_fraction=0.4)
        assert len(res.table) >= 2

    def test_no_feasible_candidates(self, rng):
        a = rng.standard_normal((30, 60))
        model = CostModel(platform_by_name("1x4"))
        with pytest.raises(TuningError):
            tune_dictionary_size(a, 0.001, model, candidates=[2, 3],
                                 seed=0)

    def test_cost_of_lookup(self, data):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        res = tune_dictionary_size(a, 0.1, model, seed=0,
                                   candidates=[40, 80])
        assert res.cost_of(res.best_size) > 0
        with pytest.raises(KeyError):
            res.cost_of(999)


class TestInfeasibleCandidates:
    """Strict candidate trials leave the tuners' results unchanged."""

    CANDIDATES = [2, 3, 24, 60, 120]

    @pytest.mark.parametrize("tune, workers", [
        (tune_dictionary_size, None),
        (tune_dictionary_size, 2),
        (sketch.tune_dictionary_size_sketched, None),
    ])
    def test_tables_match_non_strict_sweep(self, data, monkeypatch, tune,
                                           workers):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))

        def run():
            return tune(a, 0.05, model, seed=2, trials=2,
                        candidates=self.CANDIDATES, workers=workers)

        res = run()
        # both tuners run the sweep in repro.core.tuner
        real = tuner.measure_alpha_batch
        monkeypatch.setattr(
            tuner, "measure_alpha_batch",
            lambda *args, **kw: real(*args, **dict(kw, strict=False)))
        ref = run()
        assert len(ref.table) < len(self.CANDIDATES)  # some infeasible
        assert res.table == ref.table
        assert res.best_size == ref.best_size
        assert res.subset_columns == ref.subset_columns

    def test_infeasible_trial_stops_at_its_first_panel(self, monkeypatch):
        a = np.random.default_rng(4).standard_normal((30, 1024))
        model = CostModel(platform_by_name("1x4"))
        panels = _count_panels(monkeypatch)
        with pytest.raises(TuningError):
            tune_dictionary_size(a, 0.001, model, seed=0,
                                 subset_fraction=1.0, candidates=[2, 3])
        assert panels[0] == 2


def _reference_sweep(a, eps, model, objective, candidates, *, seed,
                     subset_fraction=0.25, trials=1):
    """Every candidate's strict α estimate, then the serial cut.

    Returns ``(full_table, table, subset_columns, kept)``: the Eq. 2/3/4
    rows of all feasible candidates, the rows the serial scan keeps (it
    stops at the first candidate whose cost at nnz = 0 is at least the
    best row so far, once two rows are in), the largest subset among
    the kept candidates and their count.
    """
    m, n = a.shape
    order = as_generator(seed).permutation(n)
    n_sub = max(min(n, int(round(subset_fraction * n))), 2)
    plan = tuner._candidate_plan(sorted(set(candidates)), n_sub, n, seed)
    estimates = measure_alpha_batch(
        a, [(order[:n_eff], l, s) for l, n_eff, s in plan], eps,
        trials=trials, strict=True)
    rows = [(est.size, est.mean, est.mean * n,
             model.objective(objective, m, est.size, est.mean * n, n))
            if est.feasible else None for est in estimates]
    table, kept = [], 0
    for est, row in zip(estimates, rows):
        if len(table) >= 2 and model.objective(objective, m, est.size, 0,
                                               n) >= min(r[3] for r in table):
            break
        kept += 1
        if row is not None:
            table.append(row)
    full = [row for row in rows if row is not None]
    return full, table, max(n_eff for _, n_eff, _ in plan[:kept]), kept


class TestDominatedCandidates:
    """The sweep stops at the first candidate Eq. 2/3/4 rule out."""

    #: on the union data at eps=0.1, seed=3: 2..20 infeasible, 24 and 40
    #: feasible, 60 the first dominated candidate — the second of the
    #: fourth wave of two
    GRID = [2, 3, 12, 16, 20, 24, 40, 60, 90]
    KEPT = 7

    @pytest.mark.parametrize("objective", ["time", "energy", "memory"])
    def test_matches_cut_reference_sweep(self, data, objective):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        full, table, columns, kept = _reference_sweep(
            a, 0.1, model, objective, self.GRID, seed=3)
        assert kept == self.KEPT and len(table) < len(full)
        best = min(table, key=lambda row: row[3])[0]
        assert best == min(full, key=lambda row: row[3])[0]
        for workers in (None, 2):
            res = tune_dictionary_size(a, 0.1, model, objective=objective,
                                       candidates=self.GRID, seed=3,
                                       workers=workers)
            assert res.table == table == full[:len(table)]
            assert res.best_size == best
            assert res.subset_columns == columns

    def test_cut_inside_a_wave_discards_the_rest(self, data, monkeypatch):
        from repro.core import alpha

        a, _ = data
        waves = []
        real = alpha._run_alpha_tasks

        def spy(a, payloads, *args, **kw):
            waves.append([size for _cols, size, _seed in payloads])
            return real(a, payloads, *args, **kw)

        monkeypatch.setattr(alpha, "_run_alpha_tasks", spy)
        model = CostModel(platform_by_name("1x4"))
        res = tune_dictionary_size(a, 0.1, model, candidates=self.GRID,
                                   seed=3, workers=2)
        assert waves == [[2, 3], [12, 16], [20, 24], [40, 60]]
        assert [row[0] for row in res.table] == [24, 40]

    def test_dominated_candidates_are_never_encoded(self, data,
                                                    monkeypatch):
        from repro.core import alpha

        a, _ = data
        encoded = []
        real = alpha._alpha_task

        def spy(shared, payload, workers=None):
            encoded.append(payload[1])
            return real(shared, payload, workers=workers)

        monkeypatch.setattr(alpha, "_alpha_task", spy)
        model = CostModel(platform_by_name("1x4"))
        tune_dictionary_size(a, 0.1, model, candidates=self.GRID, seed=3,
                             trials=2)
        assert encoded == [l for l in self.GRID[:self.KEPT]
                           for _ in range(2)]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_two_row_floor(self, data, workers):
        """On one processor 48's cost at nnz = 0 already exceeds 24's
        row, but the table keeps two feasible rows for the drift
        monitor's α(L) fit; 64 is then cut."""
        a, _ = data
        m, n = a.shape
        model = CostModel(platform_by_name("1x1"))
        res = tune_dictionary_size(a, 0.1, model, candidates=[24, 48, 64],
                                   seed=3, workers=workers)
        assert [row[0] for row in res.table] == [24, 48]
        assert model.time(m, 48, 0) >= res.cost_of(24)
        with pytest.raises(KeyError):
            res.cost_of(64)

    @pytest.mark.parametrize("tune", [
        tune_dictionary_size, sketch.tune_dictionary_size_sketched])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_counters_cover_every_candidate(self, data, tune, workers):
        a, _ = data
        model = CostModel(platform_by_name("1x4"))
        with obs.observed():
            res = tune(a, 0.1, model, candidates=self.GRID, seed=3,
                       workers=workers)
            evaluated = obs.REGISTRY.counter("tuner.candidates_evaluated")
            pruned = obs.REGISTRY.counter("tuner.candidates_pruned")
            feasible = obs.REGISTRY.counter("tuner.candidates_feasible")
        assert pruned > 0
        assert evaluated + pruned == len(self.GRID)
        assert feasible == len(res.table)
        if tune is tune_dictionary_size:
            assert (evaluated, pruned) == (self.KEPT, 2)
