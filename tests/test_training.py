import numpy as np
import pytest

from specgrad.errors import InvalidInputError, NumericalFailureError
from specgrad.layer import GcpLayerConfig
from specgrad.schemes import BackwardScheme
from specgrad.training import (
    HybridSchedule,
    ToyModel,
    ToyModelSpec,
    _batch_pass,
    batch_stream,
    evaluate_model,
    make_toy_task,
    run_hybrid_training,
)


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


class TestTask:
    def test_balanced_profiles_differ_per_class(self):
        spec = small_spec()
        task = make_toy_task(spec, 30, seed=1, kind="balanced")
        assert task.inputs.shape == (30, 4, 16)
        assert set(np.unique(task.labels)) <= {0, 1, 2}

    def test_fine_grained_signal_sits_in_trailing_dims(self):
        from specgrad.training import class_scale_profiles

        profiles = class_scale_profiles(8, 3, "fine_grained")
        # leading block identical across classes; trailing dims distinguish
        assert np.ptp(profiles[:, :6], axis=0).max() == 0.0
        assert np.ptp(profiles[:, 6:], axis=0).max() > 0.0

    def test_stream_is_deterministic(self):
        spec = small_spec()
        task = make_toy_task(spec, 30, seed=1)
        a = [yb.tolist() for _, yb in batch_stream(task, 4, 5, seed=9)]
        b = [yb.tolist() for _, yb in batch_stream(task, 4, 5, seed=9)]
        assert a == b


class TestTraining:
    def test_pure_ns_baseline_learns(self):
        spec = small_spec()
        task = make_toy_task(spec, 120, seed=2)
        log = run_hybrid_training(
            spec, schedule(None, 120), batch_stream(task, 8, 120, seed=3)
        )
        assert log.status == "completed"
        assert log.records[-1].loss < log.records[0].loss
        assert log.error_rate(12) <= 0.10

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
            logs.append([r.to_dict() for r in log.records])
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
            assert log.mean_condition(n - tail, n) < log.mean_condition(0, tail)

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
