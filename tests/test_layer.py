import numpy as np
import pytest

from specgrad.core import EPS_DOUBLE, FeatureMatrix, clamp_eigenvalues, count_clamped, eigh
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.layer import (
    GcpLayerConfig,
    _trusted,
    gcp_backward,
    gcp_forward,
    grad_check,
    grad_from_upper_triangle,
    upper_triangle_vector,
)
from specgrad.schemes import BackwardScheme, grad_covariance, k_matrix
from specgrad.synth import feature_matrix_with_spectrum

from conftest import random_features, same_bits
from oracles import (
    eig_sqrt_forward,
    loewner_gradient_of_x,
    newton_schulz_forward,
    spectrum_with_min_gap,
)


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

    def test_unknown_forward_refused(self):
        with pytest.raises(InvalidInputError, match="unknown forward method 'svd'"):
            GcpLayerConfig(backward=BackwardScheme.ordinary(), forward="svd")

    @pytest.mark.parametrize("backward", ["pade", None, ("pade", 100)], ids=["str", "none", "tuple"])
    @pytest.mark.parametrize("forward", ["eig_sqrt", "newton_schulz"])
    def test_backward_that_is_not_a_scheme_refused(self, backward, forward):
        # a string used to pass under the exact forward and fail at the first .kind
        with pytest.raises(InvalidInputError, match="^backward must be a BackwardScheme, got"):
            GcpLayerConfig(backward, forward)


class TestForward:
    def test_constant_features_give_clamped_near_zero(self):
        x = FeatureMatrix(np.ones((3, 5)))
        q, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        assert np.abs(q.data).max() <= np.sqrt(EPS_DOUBLE) * 1.01
        assert count_clamped(cache.eigenvalues) == 3

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
        assert count_clamped(cache.eigenvalues) == 1

    def test_features_that_are_not_a_feature_matrix_refused(self):
        # a bare array would reach the covariance through ``ndarray.data``
        cfg = GcpLayerConfig.eig(BackwardScheme.ordinary())
        with pytest.raises(InvalidInputError, match="^x must be a FeatureMatrix, got ndarray$"):
            gcp_forward(np.ones((4, 8)), cfg)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda x: gcp_forward(x, "eig"), "cfg must be a GcpLayerConfig, got str"),
            (lambda x: grad_check("cfg", x), "cfg must be a GcpLayerConfig, got str"),
            (lambda x: gcp_backward("cache", np.ones((4, 4))), "cache must be a GcpCache, got str"),
            # the scheme in place of the config it goes into
            (
                lambda x: gcp_forward(x, BackwardScheme.pade()),
                "cfg must be a GcpLayerConfig, got BackwardScheme",
            ),
            (
                lambda x: grad_check(BackwardScheme.pade(), x),
                "cfg must be a GcpLayerConfig, got BackwardScheme",
            ),
            # the forward's whole (Q, cache) pair in place of its cache
            (
                lambda x: gcp_backward(
                    gcp_forward(x, GcpLayerConfig.newton_schulz()), np.ones((4, 4))
                ),
                "cache must be a GcpCache, got tuple",
            ),
        ],
        ids=[
            "gcp_forward", "grad_check", "gcp_backward",
            "gcp_forward-scheme", "grad_check-scheme", "gcp_backward-pair",
        ],
    )
    def test_edge_arguments_of_the_wrong_type_refused(self, call, message, rng):
        # each used to fail deep inside with an AttributeError
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call(random_features(4, 16, rng))

    def test_cache_holds_what_backward_needs(self, rng):
        x = random_features(4, 16, rng)
        _, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        assert cache.eigenvalues is not None and cache.eigenvectors is not None
        assert cache.ns_trace is None
        cfg = GcpLayerConfig.newton_schulz(5)
        _, cache = gcp_forward(x, cfg)
        assert cache.eigenvalues is None and cache.eigenvectors is None
        assert cache.ns_trace is not None
        assert cache.ns_trace.iterations == 5
        assert cfg.label == "newton_schulz(5)"
        _, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.newton_schulz(10)))
        assert cache.eigenvalues is not None and cache.ns_trace is not None
        assert cache.ns_trace.iterations == 10

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("cfg", all_legal_configs(4), ids=lambda cfg: cfg.label)
    def test_cache_holds_the_clamped_eigenpairs_of_its_covariance(self, cfg, stacked):
        # the exact forward caches each covariance's eigh, clamped, as two
        # arrays; the NS forward solves none. A zero channel clamps one eigenvalue
        data = np.random.default_rng(2).normal(size=(3, 4, 6) if stacked else (4, 6))
        data[..., 3, :] = 0.0
        x = _trusted(FeatureMatrix, data=data) if stacked else FeatureMatrix(data)
        _, cache = gcp_forward(x, cfg)
        if cfg.forward == "newton_schulz":
            assert cache.eigenvalues is None and cache.eigenvectors is None
            return
        for b in range(3) if stacked else (...,):
            lam, u = eigh(cache.p.data[b])
            assert same_bits(cache.eigenvalues[b], clamp_eigenvalues(lam))
            assert same_bits(cache.eigenvectors[b], u)
            assert count_clamped(cache.eigenvalues[b]) == 1

    def test_mixed_pairing_returns_the_exact_root(self, rng):
        # exact forward, NS backward: Q is the eigendecomposition's root, and
        # the NS trace is kept only for the backward
        x = random_features(4, 16, rng)
        q, cache = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.newton_schulz(10)))
        q_exact, _ = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.ordinary()))
        assert np.array_equal(q.data, q_exact.data)
        assert cache.ns_trace.iterations == 10

    @pytest.mark.parametrize("b", [3, 4], ids=["b-3", "b-equals-d"])
    @pytest.mark.parametrize(
        "backward", ["ordinary", "topn", "trunc", "taylor", "pade", "newton_schulz"]
    )
    def test_exact_forward_of_a_stack_matches_each_matrix(self, rng, b, backward):
        # each matrix of a (B, d, N) stack gets the bits of its own call, at
        # B = d too, where a broadcast over the wrong axis would pass silently.
        # Matrix 1 has a constant channel, so one of its eigenvalues is clamped
        data = rng.normal(size=(b, 4, 16))
        data[1, 2] = 0.5
        grad_q = rng.normal(size=(b, 4, 4))
        cfg = GcpLayerConfig.eig(getattr(BackwardScheme, backward)())
        q, cache = gcp_forward(_trusted(FeatureMatrix, data=data.copy()), cfg)
        grad_x = gcp_backward(cache, grad_q)
        assert q.data.shape == cache.eigenvectors.shape == (b, 4, 4)
        for i in range(b):
            q_i, cache_i = gcp_forward(FeatureMatrix(data[i]), cfg)
            assert same_bits(q.data[i], q_i.data)
            assert same_bits(cache.eigenvalues[i], cache_i.eigenvalues)
            assert same_bits(cache.eigenvectors[i], cache_i.eigenvectors)
            assert count_clamped(cache.eigenvalues)[i] == count_clamped(cache_i.eigenvalues)
            assert same_bits(grad_x[i], gcp_backward(cache_i, grad_q[i]))
        assert count_clamped(cache.eigenvalues)[1] >= 1

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_q_has_the_bits_of_the_bare_numpy_forward(self, d, stacked):
        rng = np.random.default_rng(d)
        data = rng.normal(size=(3, d, 4 * d + 2) if stacked else (d, 4 * d + 2))
        x = _trusted(FeatureMatrix, data=data) if stacked else FeatureMatrix(data)
        for backward in (BackwardScheme.pade(100), BackwardScheme.newton_schulz(5)):
            q, _ = gcp_forward(x, GcpLayerConfig.eig(backward))
            assert np.array_equal(q.data, eig_sqrt_forward(data)), backward.kind
        q, _ = gcp_forward(x, GcpLayerConfig.newton_schulz(5))
        assert np.array_equal(q.data, newton_schulz_forward(data, 5))


class TestUpperTriangle:
    def test_roundtrip(self, rng):
        q, _ = gcp_forward(
            random_features(4, 12, rng), GcpLayerConfig.eig(BackwardScheme.ordinary())
        )
        v = upper_triangle_vector(q.data)
        assert v.size == 10
        g = grad_from_upper_triangle(v, 4)
        assert np.array_equal(g[np.triu_indices(4)], v)
        assert np.abs(np.tril(g, -1)).max() == 0.0

    def test_gradient_vector_of_wrong_size_refused(self):
        with pytest.raises(InvalidInputError, match="gradient vector of size 6 does not fit d=4"):
            grad_from_upper_triangle(np.ones(6), 4)

    @pytest.mark.parametrize("d", [None, "4", 0, -4, 4.5, True], ids=repr)
    def test_width_that_is_not_a_positive_int_refused(self, d):
        with pytest.raises(InvalidInputError, match=f"^d must be a positive int, got {d!r}$"):
            grad_from_upper_triangle(np.ones(10), d)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 4), (4,)], ids=["stack", "wide", "vector"])
    def test_non_square_input_refused(self, shape):
        # the width is the last axis: a (2, 3, 4) input is not read as d = 2
        with pytest.raises(InvalidInputError, match=r"expected d x d matrices, got shape"):
            upper_triangle_vector(np.ones(shape))

    @pytest.mark.parametrize("batch", [(3,), (2, 3)], ids=["one-batch-axis", "two-batch-axes"])
    def test_stack_gives_each_matrix_its_own_vector(self, rng, batch):
        q = rng.normal(size=(*batch, 4, 4))
        v = upper_triangle_vector(q)
        assert v.shape == (*batch, 10)
        for idx in np.ndindex(*batch):
            assert np.array_equal(v[idx], q[idx][np.triu_indices(4)])
        assert np.array_equal(grad_from_upper_triangle(v, 4), np.triu(q))

    @pytest.mark.parametrize(
        "vec,reason",
        [(["a"] * 10, "could not convert string to float"), ({"a": 1.0}, "not 'dict'")],
        ids=["strings", "dict"],
    )
    def test_non_numeric_gradient_vector_refused(self, vec, reason):
        message = f"^gradient vector must be numeric: .*{reason}"
        with pytest.raises(InvalidInputError, match=message):
            grad_from_upper_triangle(vec, 4)

    def test_stack_of_gradient_vectors_of_wrong_size_refused(self):
        # the vector size is the last axis: 3 x 6 = 18 entries do not fit d = 4 either
        with pytest.raises(InvalidInputError, match="gradient vector of size 6 does not fit d=4"):
            grad_from_upper_triangle(np.ones((3, 6)), 4)

    @pytest.mark.parametrize("d", [1, 2, 8, 128])
    def test_roundtrip_at_width(self, rng, d):
        q = rng.normal(size=(d, d))
        v = upper_triangle_vector(q)
        g = grad_from_upper_triangle(v, d)
        assert np.array_equal(g, np.triu(q))
        assert np.array_equal(upper_triangle_vector(g), v)

    def test_result_is_owned_and_writable(self, rng):
        # the cached indices must not leak: each call returns a fresh array
        q = rng.normal(size=(5, 5))
        v = upper_triangle_vector(q)
        assert v.flags.owndata and v.flags.writeable
        kept = v.copy()
        v[:] = -1.0
        assert np.array_equal(upper_triangle_vector(q), kept)

    def test_same_width_builds_no_indices(self, rng, monkeypatch):
        # the triangle indices depend only on the width: built once, not per call
        x = random_features(5, 15, rng)
        grad_q = rng.normal(size=(5, 5))

        def run():
            for cfg in all_legal_configs(5):
                q, cache = gcp_forward(x, cfg)
                gcp_backward(cache, grad_q)
                grad_from_upper_triangle(upper_triangle_vector(q.data), 5)

        run()
        calls = []
        triu_indices = np.triu_indices

        def counted(*args, **kwargs):
            calls.append(args)
            return triu_indices(*args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counted)
        run()
        assert calls == []


class TestBackward:
    @pytest.mark.parametrize("forward", ["eig", "ns"])
    def test_gradient_is_converted_once_at_the_edge(self, forward, rng):
        # the backward kernels trust an array; gcp_backward converts a list
        # (and a float32 array) to the float64 array they read
        cfg = (
            GcpLayerConfig.eig(BackwardScheme.pade()) if forward == "eig"
            else GcpLayerConfig.newton_schulz()
        )
        _, cache = gcp_forward(random_features(3, 9, rng), cfg)
        g = rng.normal(size=(3, 3))
        out = gcp_backward(cache, g)
        assert np.array_equal(gcp_backward(cache, g.tolist()), out)
        g32 = g.astype(np.float32)
        assert np.array_equal(gcp_backward(cache, g32), gcp_backward(cache, g32.astype(np.float64)))

    @pytest.mark.parametrize("iterations", [1, 5, 10])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_newton_schulz_backward_ignores_the_forward(self, iterations, stacked):
        # ns_backward reads only the NS trace, so under the exact forward
        # the NS backward gives NS-only's dL/dX bit for bit, though Q differs
        rng = np.random.default_rng(iterations)
        shape = (3, 6, 20) if stacked else (6, 20)
        data = rng.normal(size=shape)
        x = _trusted(FeatureMatrix, data=data) if stacked else FeatureMatrix(data)
        g = rng.normal(size=(*shape[:-1], shape[-2]))
        eig = GcpLayerConfig.eig(BackwardScheme.newton_schulz(iterations))
        q_eig, cache_eig = gcp_forward(x, eig)
        q_ns, cache_ns = gcp_forward(x, GcpLayerConfig.newton_schulz(iterations))
        assert not np.array_equal(q_eig.data, q_ns.data)
        assert same_bits(gcp_backward(cache_eig, g), gcp_backward(cache_ns, g))

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
        lam = cache.eigenvalues.copy()
        lam[2] = lam[1]
        from dataclasses import replace

        tied = replace(cache, eigenvalues=lam)
        with pytest.raises(NumericalFailureError) as err:
            gcp_backward(tied, np.ones((3, 3)))
        assert err.value.details["k_entries"].tolist() == [[1, 2], [2, 1]]
        assert err.value.details["clamped"] == 0

    @pytest.mark.parametrize(
        "scheme",
        [
            BackwardScheme.ordinary(),
            BackwardScheme.topn(4),  # keeps the tied pair
            BackwardScheme.taylor(100),
            BackwardScheme.trunc(1e10),
            BackwardScheme.pade(100),
        ],
        ids=lambda s: s.kind,
    )
    def test_clamped_tie_in_a_stack(self, scheme):
        # matrix 1 has two zero feature rows: its last two eigenvalues clamp
        # to eps, an exact tie at (2, 3)
        data = np.random.default_rng(3).normal(size=(2, 4, 12))
        data[1, 2:] = 0.0
        cfg = GcpLayerConfig.eig(scheme)
        _, cache = gcp_forward(_trusted(FeatureMatrix, data=data), cfg)
        assert count_clamped(cache.eigenvalues).tolist() == [0, 2]
        lam = cache.eigenvalues
        assert lam[1, 2] == lam[1, 3] == EPS_DOUBLE
        if scheme.kind in ("ordinary", "topn"):
            # K = inf meets a zero gap: nan, named by (matrix, row, column)
            with pytest.raises(NumericalFailureError) as err:
                gcp_backward(cache, np.ones((2, 4, 4)))
            assert err.value.details["k_entries"].tolist() == [[1, 2, 3], [1, 3, 2]]
            assert err.value.details["clamped"] == 2
            return
        assert np.all(np.isfinite(gcp_backward(cache, np.ones((2, 4, 4)))))
        # with identity eigenvectors dl/dP is L o (G + G^T) exactly: the
        # tied pair's L entry is K_23 (lam_2 - lam_3) = 0
        eye = np.stack([np.eye(4)] * 2)
        loewner = grad_covariance(np.ones((2, 4, 4)), lam, eye, k_matrix(lam, scheme)) / 2.0
        assert loewner[1, 2, 3] == loewner[1, 3, 2] == 0.0
        assert np.all(loewner[1, :2] > 0) and np.all(loewner[0] > 0)

    def test_stack_failure_names_only_its_first_failing_matrix(self):
        # matrices 1 and 2 each clamp a tie: ordinary's gradient is nan in both,
        # and the error carries the K entries of matrix 1 alone
        data = np.random.default_rng(3).normal(size=(3, 4, 12))
        data[1, 2:] = data[2, 1:3] = 0.0
        scheme = BackwardScheme.ordinary()
        _, cache = gcp_forward(_trusted(FeatureMatrix, data=data), GcpLayerConfig.eig(scheme))
        assert count_clamped(cache.eigenvalues).tolist() == [0, 2, 2]
        assert np.argwhere(np.isinf(k_matrix(cache.eigenvalues, scheme)))[:, 0].tolist() == [1, 1, 2, 2]
        with pytest.raises(NumericalFailureError) as err:
            gcp_backward(cache, np.ones((3, 4, 4)))
        assert err.value.details["k_entries"].tolist() == [[1, 2, 3], [1, 3, 2]]
        assert err.value.details["clamped"] == 2

    @pytest.mark.parametrize("bad", ["nan", "shape"])
    @pytest.mark.parametrize("cfg", all_legal_configs(4), ids=lambda cfg: cfg.label)
    def test_malformed_grad_q_rejected(self, cfg, bad):
        # the backward each pairing calls checks grad_q; gcp_backward relies on it
        _, cache = gcp_forward(random_features(4, 16, np.random.default_rng(0)), cfg)
        grad_q = np.ones((3, 3)) if bad == "shape" else np.ones((4, 4))
        if bad == "nan":
            grad_q[1, 2] = np.nan
        with pytest.raises(InvalidInputError):
            gcp_backward(cache, grad_q)


class TestClampedNullBlock:
    """At N < d the covariance has a null block, and its clamped eigenvalues tie at eps.

    The centred features lie in the range of P, so the null-null pairs of
    dL/dP are annihilated by the chain to X up to roundoff: whether a scheme
    damps a tied pair to 0 or keeps its exact weight 1/(4 sqrt(eps)) barely
    moves dL/dX. ``ordinary`` instead meets inf * 0 on those pairs and fails.
    """

    @pytest.mark.parametrize("d", [8, 64])
    def test_oracle_is_the_exact_adjoint_at_full_rank(self, d):
        # no clamped eigenvalue at N = 4d: Phi = 1 everywhere, pade's Phi to roundoff
        cfg = GcpLayerConfig.eig(BackwardScheme.pade(100))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(d, 4 * d))
            g = rng.normal(size=(d, d))
            _, cache = gcp_forward(FeatureMatrix(x), cfg)
            assert count_clamped(cache.eigenvalues) == 0
            oracle = loewner_gradient_of_x(x, g, 1.0)
            assert np.abs(gcp_backward(cache, g) - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("d", [8, 64])
    def test_tied_null_pairs_do_not_reach_x(self, d):
        # seeds 0-9 at N = 3d/4: Phi = 1 and Phi = 0 on the tied clamped
        # pairs agree to 1e-7 relative, although L there is 1/(4 sqrt(eps)) = 1.7e7
        tied = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(d, 3 * d // 4))
            g = rng.normal(size=(d, d))
            exact = loewner_gradient_of_x(x, g, 1.0)
            damped = loewner_gradient_of_x(x, g, 0.0)
            assert np.abs(exact - damped).max() <= 1e-7 * np.abs(exact).max(), seed
            _, cache = gcp_forward(FeatureMatrix(x), GcpLayerConfig.eig(BackwardScheme.pade(100)))
            tied += int(count_clamped(cache.eigenvalues)) >= 2
        assert tied >= 5  # the comparison is not vacuous: most draws tie

    @staticmethod
    def assert_fails_inside_the_null_block(cache, grad_q, lead):
        # rank 3 at N = 4: the last five eigenvalues clamp, so ordinary's
        # non-finite K entries are the 20 off-diagonal pairs of that block
        with pytest.raises(NumericalFailureError) as err:
            gcp_backward(cache, grad_q)
        entries = err.value.details["k_entries"]
        assert len(entries) == 20
        assert np.all(entries[:, :-2] == lead) and np.all(entries[:, -2:] >= 3)
        assert err.value.details["clamped"] == 5

    @pytest.mark.parametrize("seed", range(5))
    def test_ordinary_fails_only_on_tied_clamped_pairs(self, seed):
        rng = np.random.default_rng(seed)
        x = 1e-3 * rng.normal(size=(8, 4))
        cfg = GcpLayerConfig.eig(BackwardScheme.ordinary())
        _, cache = gcp_forward(FeatureMatrix(x), cfg)
        self.assert_fails_inside_the_null_block(cache, np.ones((8, 8)), [])
        # a stack whose second matrix is the same draw, three copies of each
        # sample (the same rank-3 covariance), behind a full-rank first matrix
        stack = np.stack([rng.normal(size=(8, 12)), np.tile(x, 3)])
        _, cache = gcp_forward(_trusted(FeatureMatrix, data=stack), cfg)
        assert count_clamped(cache.eigenvalues).tolist() == [0, 5]
        self.assert_fails_inside_the_null_block(cache, np.ones((2, 8, 8)), [1])


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

    def test_unknown_loss_kind_refused(self, rng):
        x = random_features(3, 8, rng)
        message = r"loss kind must be one of \('sum', 'trace', 'random-linear'\), got 'mean'"
        with pytest.raises(InvalidInputError, match=message):
            grad_check(GcpLayerConfig.eig(BackwardScheme.ordinary()), x, loss_kind="mean")

    def test_features_that_are_not_a_feature_matrix_refused(self):
        cfg = GcpLayerConfig.eig(BackwardScheme.ordinary())
        with pytest.raises(InvalidInputError, match="^x must be a FeatureMatrix, got ndarray$"):
            grad_check(cfg, np.ones((4, 8)))

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
