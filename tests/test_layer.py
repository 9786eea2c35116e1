import numpy as np
import pytest

from specgrad.core import EPS_DOUBLE, FeatureMatrix
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.layer import (
    GcpLayerConfig,
    gcp_backward,
    gcp_forward,
    grad_check,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from specgrad.schemes import BackwardScheme
from specgrad.synth import feature_matrix_with_spectrum, spectrum_with_min_gap

from conftest import random_features


def all_legal_configs(d: int = 4):
    eig_schemes = (
        BackwardScheme.ordinary(),
        BackwardScheme.topn(d),  # n = d keeps the bias inactive
        BackwardScheme.trunc(1e10),
        BackwardScheme.taylor(100),
        BackwardScheme.pade(100),
        BackwardScheme.newton_schulz(12),
    )
    configs = [GcpLayerConfig.eig(s) for s in eig_schemes]
    configs.append(GcpLayerConfig.newton_schulz(12))
    return configs


class TestConfig:
    def test_seven_legal_pairs(self):
        assert len(all_legal_configs()) == 7

    def test_ns_forward_requires_ns_backward(self):
        with pytest.raises(InvalidInputError):
            GcpLayerConfig(
                backward=BackwardScheme.ordinary(), forward="newton_schulz"
            )


class TestForward:
    def test_constant_features_give_clamped_near_zero(self):
        x = FeatureMatrix(np.ones((3, 5)))
        q, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        assert np.abs(q.data).max() <= np.sqrt(EPS_DOUBLE) * 1.01
        assert cache.clamped_count == 3

    def test_eig_and_ns_agree_when_well_conditioned(self, rng):
        x = random_features(5, 20, rng)
        q_eig, _ = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        q_ns, _ = gcp_forward(x, GcpLayerConfig.newton_schulz(20))
        rel = np.linalg.norm(q_eig.data - q_ns.data) / np.linalg.norm(q_eig.data)
        assert rel <= 1e-5

    def test_output_symmetric_psd_all_configs(self, rng):
        x = random_features(4, 16, rng)
        for cfg in all_legal_configs():
            q, _ = gcp_forward(x, cfg)
            assert np.array_equal(q.data, q.data.T)
            assert np.linalg.eigvalsh(q.data).min() >= -1e-10

    def test_hand_case_composes(self):
        # covariance of [[1,-1],[0,0]] is diag(1, 0); after clamping the
        # square root is diag(1, sqrt(eps))
        x = FeatureMatrix(np.array([[1.0, -1.0], [0.0, 0.0]]))
        q, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        np.testing.assert_allclose(
            q.data, np.diag([1.0, np.sqrt(EPS_DOUBLE)]), atol=1e-12
        )
        assert cache.clamped_count == 1

    def test_cache_holds_what_backward_needs(self, rng):
        x = random_features(4, 16, rng)
        _, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        assert cache.eig is not None and cache.ns_trace is None
        cfg = GcpLayerConfig.newton_schulz(5)
        _, cache = gcp_forward(x, cfg)
        assert cache.eig is None and cache.ns_trace is not None
        assert cache.ns_trace.iterations == 5
        assert cfg.label == "newton_schulz(5)"
        _, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.newton_schulz(10)))
        assert cache.eig is not None and cache.ns_trace is not None
        assert cache.ns_trace.iterations == 10


class TestUpperTriangle:
    def test_roundtrip(self, rng):
        q, _ = gcp_forward(
            random_features(4, 12, rng), GcpLayerConfig.eig(BackwardScheme.ordinary())
        )
        v = upper_triangle_vector(q)
        assert v.size == 10
        g = grad_from_upper_triangle(v, 4)
        assert np.array_equal(g[np.triu_indices(4)], v)
        assert np.abs(np.tril(g, -1)).max() == 0.0


class TestBackward:
    def test_zero_gradient(self, rng):
        x = random_features(3, 9, rng)
        for cfg in all_legal_configs(3):
            _, cache = gcp_forward(x, cfg)
            out = gcp_backward(cache, np.zeros((3, 3)))
            assert np.abs(out).max() == 0.0

    def test_all_seven_pairs_match_finite_differences(self, rng):
        for cfg in all_legal_configs(4):
            local = np.random.default_rng(11)
            x = feature_matrix_with_spectrum(spectrum_with_min_gap(4, local), 14, local)
            report = grad_check(cfg, x, loss_kind="sum")
            assert report.passes(1e-4), (cfg.label, report)

    def test_exact_tie_raises_typed_error(self):
        x = feature_matrix_with_spectrum(
            np.array([1.0, 0.5, 0.5]), 12, np.random.default_rng(0)
        )
        _, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        # plant an exact tie: the realized spectrum is equal only to roundoff
        e = cache.eig
        lam = e.eigenvalues.copy()
        lam[2] = lam[1]
        from dataclasses import replace
        from specgrad.core import EigenDecomposition

        tied = replace(cache, eig=EigenDecomposition(lam, e.eigenvectors))
        with pytest.raises(NumericalFailureError) as err:
            gcp_backward(tied, np.ones((3, 3)))
        assert err.value.details["k_entries"]


class TestGradCheck:
    def test_ordinary_passes_tight_tolerance(self, rng):
        local = np.random.default_rng(5)
        x = feature_matrix_with_spectrum(spectrum_with_min_gap(3, local), 10, local)
        report = grad_check(GcpLayerConfig.eig(BackwardScheme.ordinary()), x)
        assert report.passes(1e-5)
        assert report.n_nonfinite == 0

    def test_taylor_tracks_ordinary_on_separated_spectrum(self):
        local = np.random.default_rng(6)
        x = feature_matrix_with_spectrum(np.array([1.0, 0.5, 0.25]), 12, local)
        a = grad_check(GcpLayerConfig.eig(BackwardScheme.ordinary()), x)
        b = grad_check(GcpLayerConfig.eig(BackwardScheme.taylor(100)), x)
        assert abs(a.max_rel_error - b.max_rel_error) <= 1e-6

    def test_truncation_bias_flagged_not_nan(self):
        # spectrum with an active truncation: biased values, finite report
        local = np.random.default_rng(7)
        x = feature_matrix_with_spectrum(np.array([1.0, 0.3 + 2e-14, 0.3]), 12, local)
        report = grad_check(GcpLayerConfig.eig(BackwardScheme.trunc(1e10)), x)
        assert report.n_nonfinite == 0
        assert np.isfinite(report.max_rel_error)

    def test_loss_kinds(self, rng):
        x = random_features(3, 8, rng)
        for kind in ("sum", "trace", "random-linear"):
            report = grad_check(
                GcpLayerConfig.eig(BackwardScheme.ordinary()), x, loss_kind=kind
            )
            assert report.passes(1e-4), kind

    def test_size_cap(self):
        x = FeatureMatrix(np.random.default_rng(0).normal(size=(101, 101)))
        with pytest.raises(InvalidInputError):
            grad_check(GcpLayerConfig.eig(BackwardScheme.ordinary()), x)


class TestSwapContinuity:
    def test_forward_outputs_agree_at_the_switch(self, rng):
        # same weights, cond <= 100: outgoing NS(20) and incoming exact
        # square root differ by less than 1e-4 relative
        local = np.random.default_rng(21)
        lam = np.geomspace(1.0, 0.01, 5)
        x = feature_matrix_with_spectrum(lam, 24, local)
        q_ns, _ = gcp_forward(x, GcpLayerConfig.newton_schulz(20))
        q_eig, _ = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.pade(100)))
        rel = np.linalg.norm(q_ns.data - q_eig.data) / np.linalg.norm(q_eig.data)
        assert rel <= 1e-4
