from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from specgrad.core import FeatureMatrix
from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.layer import GcpLayerConfig, _trusted, gcp_forward
from specgrad.schemes import BackwardScheme
from specgrad.training import (
    HybridSchedule,
    ToyModel,
    ToyModelSpec,
    _batch_pass,
    _clamped_eigenvalues,
    batch_stream,
    evaluate_model,
    make_toy_task,
    run_hybrid_training,
)

from oracles import error_rate, mean_condition, per_sample_batch_pass, per_sample_evaluation


def stacked_and_per_sample(monkeypatch, spec, sched, batches, calls=None):
    """The run through the stacked ``_batch_pass`` and the run through the
    per-sample oracle, with the layer forwards and the errors the stacked
    run made. A ``calls`` Counter also receives the stacked run's calls of
    ``gcp_forward``, ``gcp_backward``, the layer's ``eigh`` and the
    condition number's ``eigh``."""
    import specgrad.layer as layer
    import specgrad.training as training

    calls = Counter() if calls is None else calls
    raised = []
    stacked = training._batch_pass

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    def recording_stacked(*args):
        try:
            return stacked(*args)
        except Exception as err:
            raised.append(err)
            raise

    with monkeypatch.context() as patch:
        for module, name in (
            (training, "gcp_forward"),
            (training, "gcp_backward"),
            (layer, "eigh"),
            (training, "eigh"),
        ):
            wrapper = counting(f"{module.__name__}.{name}", getattr(module, name))
            patch.setattr(module, name, wrapper)
        patch.setattr(training, "_batch_pass", recording_stacked)
        log = run_hybrid_training(spec, sched, batches)
    with monkeypatch.context() as patch:
        patch.setattr(training, "_batch_pass", per_sample_batch_pass)
        per_sample = run_hybrid_training(spec, sched, batches)
    return log, per_sample, calls["specgrad.training.gcp_forward"], raised


def assert_same_run(log, ref):
    assert (log.status, log.failure_step, log.failure_reason) == (
        ref.status,
        ref.failure_step,
        ref.failure_reason,
    )
    assert [asdict(r) for r in log.records] == [asdict(r) for r in ref.records]
    for name in ("w1", "w2", "b2"):
        assert np.array_equal(getattr(log.final_model, name), getattr(ref.final_model, name))


def small_spec(seed=0):
    return ToyModelSpec(d=4, raw_dim=4, n_cols=16, init_seed=seed)


def schedule(switch, steps, scheme=None, warmup=None):
    return HybridSchedule(
        post_switch_scheme=scheme or BackwardScheme.pade(100),
        switch_step=switch,
        warmup_steps=int(0.05 * steps) if warmup is None else warmup,
        lr_schedule=((0, 0.08), (int(0.8 * steps), 0.008)),
    )


class TestSchedule:
    def test_lr_lookup(self):
        sched = HybridSchedule(
            post_switch_scheme=BackwardScheme.pade(100),
            switch_step=None,
            lr_schedule=((0, 0.1), (10, 0.01), (20, 0.001)),
        )
        assert sched.base_lr(0) == 0.1
        assert sched.base_lr(9) == 0.1
        assert sched.base_lr(10) == 0.01
        assert sched.base_lr(25) == 0.001

    def test_warmup_holds_the_preswitch_rate(self):
        sched = HybridSchedule(
            post_switch_scheme=BackwardScheme.ordinary(),
            switch_step=8,
            warmup_steps=4,
            lr_schedule=((0, 0.1), (10, 0.01)),
        )
        # decay at step 10 falls inside the warm-up window [8, 12)
        assert sched.effective_lr(9) == 0.1
        assert sched.effective_lr(11) == 0.1
        assert sched.effective_lr(12) == 0.01

    def test_switch_must_precede_final_decay(self):
        with pytest.raises(InvalidInputError):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=30,
                lr_schedule=((0, 0.1), (20, 0.01)),
            )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=None,
                warmup_steps=-1,
            )
        with pytest.raises(InvalidInputError):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=None,
                lr_schedule=((5, 0.1),),
            )
        with pytest.raises(InvalidInputError, match="steps must be strictly increasing"):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=None,
                lr_schedule=((0, 0.1), (10, 0.01), (10, 0.001)),
            )


    @pytest.mark.parametrize("step", [2.7, True, -1], ids=["fraction", "bool", "negative"])
    def test_lr_schedule_step_is_a_count(self, step):
        # a fraction or a bool used to pass through int(): 2.7 became 2, True 1
        with pytest.raises(
            InvalidInputError, match=f"^lr schedule step must be a non-negative int, got {step}$"
        ):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=None,
                lr_schedule=((0, 0.1), (step, 0.01)),
            )

    @pytest.mark.parametrize("scheme", ["pade", None, 100], ids=repr)
    def test_post_switch_scheme_that_is_not_a_scheme_refused(self, scheme):
        # a string used to pass here and end the run at the switch step with
        # an AttributeError
        with pytest.raises(
            InvalidInputError, match="^post_switch_scheme must be a BackwardScheme, got"
        ):
            HybridSchedule(post_switch_scheme=scheme, switch_step=2)

    def test_integral_lr_schedule_steps_pass_as_ints(self):
        sched = HybridSchedule(
            post_switch_scheme=BackwardScheme.ordinary(),
            switch_step=None,
            lr_schedule=((0.0, 0.1), (np.int64(2), 0.01)),
        )
        assert sched.lr_schedule == ((0, 0.1), (2, 0.01))
        assert all(type(s) is int for s, _ in sched.lr_schedule)


class TestTask:
    def test_balanced_profiles_differ_per_class(self):
        spec = small_spec()
        task = make_toy_task(spec, 30, seed=1, kind="balanced")
        assert task.inputs.shape == (30, 4, 16)
        assert set(np.unique(task.labels)) <= {0, 1, 2}

    def test_fine_grained_signal_sits_in_trailing_dims(self):
        from specgrad.training import class_scale_profiles

        profiles = class_scale_profiles(8, "fine_grained")
        # leading block identical across classes; trailing dims distinguish
        assert np.ptp(profiles[:, :6], axis=0).max() == 0.0
        assert np.ptp(profiles[:, 6:], axis=0).max() > 0.0

    def test_stream_is_deterministic(self):
        spec = small_spec()
        task = make_toy_task(spec, 30, seed=1)
        a = [yb.tolist() for _, yb in batch_stream(task, 4, 5, seed=9)]
        b = [yb.tolist() for _, yb in batch_stream(task, 4, 5, seed=9)]
        assert a == b

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), None, "0.1", True, np.True_, 2j]
    )
    def test_non_finite_rates_and_condition_rejected(self, value):
        # a non-real, bool or str rate or condition is refused under its field's name
        with pytest.raises(InvalidInputError, match="lr schedule rate|learning rates"):
            HybridSchedule(
                post_switch_scheme=BackwardScheme.ordinary(),
                switch_step=None,
                lr_schedule=((0, value),),
            )
        with pytest.raises(InvalidInputError, match="init_condition"):
            ToyModelSpec(init_condition=value)

    @pytest.mark.parametrize("schedule", [((0,),), ((0, 0.1, 5),), (0, 0.1), 5, None])
    def test_malformed_lr_schedule_pairs_rejected(self, schedule):
        pairs = r"lr schedule must be a sequence of \(step, rate\) pairs"
        with pytest.raises(InvalidInputError, match=pairs):
            HybridSchedule(BackwardScheme.ordinary(), None, lr_schedule=schedule)

    def test_real_rates_and_condition_pass_as_floats(self):
        sched = HybridSchedule(
            BackwardScheme.ordinary(), None, lr_schedule=((0, 1), (5, np.float32(0.5)))
        )
        assert sched.lr_schedule == ((0, 1.0), (5, 0.5))
        assert all(type(lr) is float for _, lr in sched.lr_schedule)
        assert ToyModelSpec(init_condition=np.int64(10)).init_condition == 10

    @pytest.mark.parametrize(
        "sizes", [(1, 1, 4), (3, 2, 4), (2, 2, 1)], ids=["d-1", "raw-below-d", "n-cols-1"]
    )
    def test_model_size_relations_refused(self, sizes):
        d, raw_dim, n_cols = sizes
        with pytest.raises(InvalidInputError, match="need raw_dim >= d >= 2 and n_cols >= 2"):
            ToyModelSpec(d=d, raw_dim=raw_dim, n_cols=n_cols)

    def test_fine_grained_needs_a_trailing_dimension_per_class(self):
        from specgrad.training import class_scale_profiles

        assert class_scale_profiles(3, "fine_grained").shape == (3, 3)
        with pytest.raises(InvalidInputError, match="fine_grained needs raw_dim >= 3, got 2"):
            class_scale_profiles(2, "fine_grained")

    def test_unknown_task_kind_refused(self):
        with pytest.raises(InvalidInputError, match="unknown task kind 'imbalanced'"):
            make_toy_task(small_spec(), 4, kind="imbalanced")

    def test_empty_task_and_batch_rejected_on_the_call(self):
        spec = small_spec()
        with pytest.raises(InvalidInputError):
            make_toy_task(spec, 0)
        # raised by the call itself, not on the first batch drawn
        with pytest.raises(InvalidInputError):
            batch_stream(make_toy_task(spec, 30, seed=1), 0, 5)


class TestTraining:
    def test_pure_ns_baseline_learns(self):
        spec = small_spec()
        task = make_toy_task(spec, 120, seed=2)
        log = run_hybrid_training(
            spec, schedule(None, 120), batch_stream(task, 8, 120, seed=3)
        )
        assert log.status == "completed"
        assert log.records[-1].loss < log.records[0].loss
        assert error_rate(log, 12) <= 0.10

    def test_hybrid_switches_scheme_in_log(self):
        spec = small_spec()
        steps = 60
        task = make_toy_task(spec, 80, seed=2)
        log = run_hybrid_training(
            spec, schedule(30, steps), batch_stream(task, 6, steps, seed=3)
        )
        assert log.status == "completed"
        schemes = [r.scheme for r in log.records]
        assert all("newton_schulz" in s for s in schemes[:30])
        assert all(s.startswith("eig_sqrt+pade") for s in schemes[30:])

    def test_determinism_bit_identical_logs(self):
        spec = small_spec()
        task = make_toy_task(spec, 60, seed=4)
        logs = []
        for _ in range(2):
            log = run_hybrid_training(
                spec, schedule(20, 50), batch_stream(task, 6, 50, seed=5)
            )
            logs.append([asdict(r) for r in log.records])
        assert logs[0] == logs[1]

    def test_loss_parity_and_condition_trend(self):
        spec = ToyModelSpec(init_seed=0)
        steps = 240
        task = make_toy_task(spec, 240, seed=1)
        ns_log = run_hybrid_training(
            spec, schedule(None, steps), batch_stream(task, 8, steps, seed=2)
        )
        hy_log = run_hybrid_training(
            spec, schedule(int(0.6 * steps), steps), batch_stream(task, 8, steps, seed=2)
        )
        assert ns_log.status == "completed" and hy_log.status == "completed"
        eval_cfg = GcpLayerConfig.newton_schulz(spec.forward_iterations)
        ns_loss, ns_err = evaluate_model(ns_log.final_model, eval_cfg, task)
        hy_loss, _ = evaluate_model(hy_log.final_model, eval_cfg, task)
        assert ns_err <= 0.10
        assert hy_loss <= ns_loss * 1.05
        n = len(ns_log.records)
        tail = n // 10
        for log in (ns_log, hy_log):
            assert mean_condition(log, n - tail, n) < mean_condition(log, 0, tail)

    def test_divergence_produces_log_not_crash(self):
        # an absurd learning rate reliably blows the run up
        spec = small_spec()
        task = make_toy_task(spec, 40, seed=6)
        sched = HybridSchedule(
            post_switch_scheme=BackwardScheme.pade(100),
            switch_step=None,
            lr_schedule=((0, 1e9),),
        )
        log = run_hybrid_training(spec, sched, batch_stream(task, 4, 40, seed=7))
        assert log.status == "diverged"
        assert log.failure_step is not None
        assert len(log.records) >= 1

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tied_clamped_tail_fails_only_on_an_infinite_k(self, seed):
        # train-toy's defaults with N = 4 < d = 8: five clamped eigenvalues tie
        # at eps after the swap at step 144. Ordinary's K is inf there, and
        # inf * 0 is nan; pade's roundoff K entries meet sqrt(lam_i) -
        # sqrt(lam_j) = 0 and vanish, so the run trains on
        spec = ToyModelSpec(n_cols=4, init_seed=seed)
        task = make_toy_task(spec, 240, seed=seed + 1)
        ordinary, pade = (
            run_hybrid_training(
                spec, schedule(144, 240, scheme), batch_stream(task, 8, 160, seed=seed + 2)
            )
            for scheme in (BackwardScheme.ordinary(), BackwardScheme.pade(100))
        )
        assert (ordinary.status, ordinary.failure_step) == ("diverged", 144)
        assert ordinary.failure_reason == "non-finite gradient under scheme ordinary"
        assert (pade.status, len(pade.records)) == ("completed", 160)
        assert np.isfinite(pade.final_loss)

    @pytest.mark.parametrize("switch", [None, 0], ids=["condition-solve", "exact-forward"])
    def test_eigensolver_failure_is_a_divergence(self, monkeypatch, switch):
        # the NS phase solves each covariance only for its logged condition
        # number, the exact phase in the forward; either failure ends the run
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        spec = small_spec()
        task = make_toy_task(spec, 8, seed=6)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        log = run_hybrid_training(spec, schedule(switch, 4), batch_stream(task, 2, 4, seed=1))
        assert (log.status, log.failure_step, log.records) == ("diverged", 0, [])
        assert log.failure_reason == "eigensolver did not converge: Eigenvalues did not converge"

    def test_run_failing_at_step_zero_has_no_final_loss(self):
        spec = small_spec()
        task = make_toy_task(spec, 4, seed=6)
        sched = HybridSchedule(post_switch_scheme=BackwardScheme.ordinary(), switch_step=None)
        overflowing = [(np.full_like(task.inputs, 1e308), task.labels)]
        log = run_hybrid_training(spec, sched, overflowing)
        assert (log.status, log.failure_step, log.records) == ("diverged", 0, [])
        assert log.final_loss is None

    def test_overflowing_gradient_sum_is_a_numerical_failure(self, monkeypatch):
        # a backward whose finite output overflows the batch sum at step 3:
        # the run ends on the typed error, with no record of the failing step.
        # The Newton-Schulz phase makes one stacked backward call per batch,
        # so the 4th call is step 3
        import specgrad.training as training

        calls = []
        backward = training.gcp_backward

        def huge_from_the_4th_call(cache, gq):
            calls.append(None)
            gx = backward(cache, gq)
            return np.full_like(gx, 1e308) if len(calls) >= 4 else gx

        monkeypatch.setattr(training, "gcp_backward", huge_from_the_4th_call)
        spec = small_spec()
        task = make_toy_task(spec, 40, seed=6)
        log = run_hybrid_training(spec, schedule(None, 6), batch_stream(task, 8, 6, seed=7))
        assert (log.status, log.failure_step, len(log.records)) == ("diverged", 3, 3)
        assert log.failure_reason.startswith("batch gradient at w1 is non-finite in 16 of 16")

    @pytest.mark.parametrize("where", ["features w1 @ r", "loss gradient at Q"])
    def test_overflow_before_the_layer_is_a_numerical_failure(self, where):
        # finite weights whose products overflow: a divergence to record, not bad input
        spec = small_spec()
        task = make_toy_task(spec, 8, seed=6)
        model = ToyModel.initialize(spec)
        if where == "features w1 @ r":
            model.w1 = np.full_like(model.w1, 1e308)
        else:
            # every logit overflows to +inf, so the softmax and dl/dQ are nan
            model.w1 *= 100.0
            model.w2 = np.full_like(model.w2, 1e308)
        cfg = GcpLayerConfig.eig(BackwardScheme.pade(100))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailureError) as err:
            _batch_pass(model, cfg, task.inputs[:2], task.labels[:2])
        assert err.value.details["where"] == where


class TestStackedPass:
    """Both phases run one stacked layer call each way per batch, with the
    values and the failures of the per-sample oracle."""

    def test_ns_phase_logs_the_eigenvalues_the_exact_forward_clamps(self, rng):
        # N = 3 < d = 4: each sample has zero eigenvalues for the clamp to raise
        x = _trusted(FeatureMatrix, data=rng.normal(size=(3, 4, 3)))
        _, ns = gcp_forward(x, GcpLayerConfig.newton_schulz(3))
        _, exact = gcp_forward(x, GcpLayerConfig.eig(BackwardScheme.pade()))
        assert np.array_equal(_clamped_eigenvalues(ns), exact.eigenvalues)

    def test_same_records_and_weights_as_per_sample(self, monkeypatch):
        spec = small_spec()
        task = make_toy_task(spec, 80, seed=2)
        batches = list(batch_stream(task, 8, 40, seed=3))
        log, ref, forwards, raised = stacked_and_per_sample(
            monkeypatch, spec, schedule(None, 40), batches
        )
        assert (forwards, raised, log.status) == (40, [], "completed")
        assert [asdict(r) for r in log.records] == [asdict(r) for r in ref.records]
        for name in ("w1", "w2", "b2"):
            assert np.array_equal(getattr(log.final_model, name), getattr(ref.final_model, name))

    def test_divergence_logs_what_the_per_sample_pass_logs(self, monkeypatch):
        spec = small_spec()
        task = make_toy_task(spec, 40, seed=6)
        sched = HybridSchedule(
            post_switch_scheme=BackwardScheme.pade(100),
            switch_step=None,
            lr_schedule=((0, 1e9),),
        )
        batches = list(batch_stream(task, 4, 40, seed=7))
        log, ref, _, raised = stacked_and_per_sample(monkeypatch, spec, sched, batches)
        assert len(raised) == 1
        assert log.status == ref.status == "diverged"
        assert (log.failure_step, log.failure_reason) == (ref.failure_step, ref.failure_reason)
        assert [asdict(r) for r in log.records] == [asdict(r) for r in ref.records]

    def test_one_overflowing_sample_names_itself(self, monkeypatch):
        # sample 5 of step 2 overflows the covariance: the stacked check fails
        # for the whole stack and reports that sample's own entries
        spec = small_spec()
        task = make_toy_task(spec, 40, seed=6)
        batches = list(batch_stream(task, 8, 4, seed=7))
        rb, yb = batches[2]
        rb = rb.copy()
        rb[5] *= 1e200
        batches[2] = (rb, yb)
        log, ref, _, raised = stacked_and_per_sample(
            monkeypatch, spec, schedule(None, 4), batches
        )
        assert [type(err) for err in raised] == [NumericalFailureError]
        assert (log.failure_step, log.failure_reason) == (ref.failure_step, ref.failure_reason)
        assert log.failure_step == 2
        assert log.failure_reason.startswith("covariance is non-finite in 16 of 16 entries")

    @pytest.mark.parametrize(
        "backward", ["ordinary", "topn", "trunc", "taylor", "pade", "newton_schulz"]
    )
    def test_exact_phase_same_records_and_weights_as_per_sample(self, monkeypatch, backward):
        # 24 Newton-Schulz steps, then 16 exact ones: one layer call each way
        # per step, and one eigensolve per sample, in the layer's exact
        # forward after the switch and for the logged condition number before
        spec = small_spec()
        task = make_toy_task(spec, 80, seed=2)
        batches = list(batch_stream(task, 8, 40, seed=3))
        sched = schedule(24, 40, getattr(BackwardScheme, backward)())
        calls = Counter()
        log, ref, _, raised = stacked_and_per_sample(monkeypatch, spec, sched, batches, calls)
        assert (raised, log.status) == ([], "completed")
        assert log.records[24].scheme.startswith("eig_sqrt+")
        assert calls == {
            "specgrad.training.gcp_forward": 40,
            "specgrad.training.gcp_backward": 40,
            "specgrad.layer.eigh": 16 * 8,
            "specgrad.training.eigh": 24 * 8,
        }
        assert_same_run(log, ref)

    def test_train_toy_defaults_same_records_and_weights_as_per_sample(self, monkeypatch):
        # train-toy's d = 8, N = 32, batch 8 and schedule, with the switch at
        # step 24 and the stream cut at 40, so both phases and the head run
        spec = ToyModelSpec(init_seed=0)
        task = make_toy_task(spec, 240, seed=1)
        batches = list(batch_stream(task, 8, 40, seed=2))
        log, ref, forwards, raised = stacked_and_per_sample(
            monkeypatch, spec, schedule(24, 240), batches
        )
        assert (forwards, raised, log.status) == (40, [], "completed")
        assert log.records[24].scheme.startswith("eig_sqrt+pade")
        assert_same_run(log, ref)

    def test_exact_phase_divergence_logs_what_the_per_sample_pass_logs(self, monkeypatch):
        # train-toy --seed 3 --n 4 --backward ordinary: clamped eigenvalues
        # tie at the switch, so K is infinite at step 144. The stacked pass
        # raises once, with the step and reason of the per-sample pass
        spec = ToyModelSpec(n_cols=4, init_seed=3)
        task = make_toy_task(spec, 240, seed=4)
        batches = list(batch_stream(task, 8, 146, seed=5))
        sched = schedule(144, 240, BackwardScheme.ordinary())
        log, ref, _, raised = stacked_and_per_sample(monkeypatch, spec, sched, batches)
        assert [type(err) for err in raised] == [NumericalFailureError]
        assert (log.failure_step, log.failure_reason) == (
            144,
            "non-finite gradient under scheme ordinary",
        )
        assert_same_run(log, ref)


    @pytest.mark.parametrize("phase", ["newton_schulz", "exact"])
    def test_a_diverging_run_pools_each_batch_once(self, monkeypatch, phase):
        # failure_step + 1 forwards: one per logged step and one for the
        # failing step, so nothing reruns the failing batch
        import specgrad.training as training

        if phase == "newton_schulz":
            spec = small_spec()
            task = make_toy_task(spec, 40, seed=6)
            sched = HybridSchedule(BackwardScheme.pade(100), None, lr_schedule=((0, 1e9),))
            batches = batch_stream(task, 4, 40, seed=7)
        else:  # as in the test above: K is infinite at step 144
            spec = ToyModelSpec(n_cols=4, init_seed=3)
            task = make_toy_task(spec, 240, seed=4)
            sched = schedule(144, 240, BackwardScheme.ordinary())
            batches = batch_stream(task, 8, 146, seed=5)
        forwards = []
        forward = training.gcp_forward
        monkeypatch.setattr(
            training, "gcp_forward", lambda *args: forwards.append(None) or forward(*args)
        )
        log = run_hybrid_training(spec, sched, batches)
        assert log.status == "diverged"
        assert len(forwards) == log.failure_step + 1


class TestEvaluate:
    @pytest.mark.parametrize("forward", ["newton_schulz", "eig"])
    def test_stacked_forward_gives_the_per_sample_bits(self, monkeypatch, forward):
        import specgrad.training as training

        spec = small_spec()
        task = make_toy_task(spec, 50, seed=2)
        log = run_hybrid_training(spec, schedule(10, 20), batch_stream(task, 8, 20, seed=3))
        cfg = (
            GcpLayerConfig.newton_schulz(spec.forward_iterations)
            if forward == "newton_schulz"
            else GcpLayerConfig.eig(BackwardScheme.pade(100))
        )
        want = per_sample_evaluation(log.final_model, cfg, task)
        forwards = []
        forward_fn = training.gcp_forward
        monkeypatch.setattr(
            training, "gcp_forward", lambda *args: forwards.append(None) or forward_fn(*args)
        )
        assert evaluate_model(log.final_model, cfg, task) == want
        assert len(forwards) == 1

    def test_failure_raises_what_the_per_sample_pass_raises(self):
        # sample 5 overflows the covariance: the stacked forward fails for
        # the whole task and reports that sample's own entries
        spec = small_spec()
        task = make_toy_task(spec, 12, seed=2)
        task.inputs[5] *= 1e200
        model = ToyModel.initialize(spec)
        cfg = GcpLayerConfig.eig(BackwardScheme.pade(100))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError) as want:
                per_sample_evaluation(model, cfg, task)
            with pytest.raises(NumericalFailureError) as got:
                evaluate_model(model, cfg, task)
        assert str(got.value) == str(want.value)
        assert got.value.details == want.value.details
        assert str(got.value).startswith("covariance is non-finite in 16 of 16 entries")
