import numpy as np
import pytest

from fedspectra import cto
from fedspectra.cto import ClientState, CtoPhase, evaluate, maybe_advance, on_receive, train_batch
from fedspectra.datasynth import ClientPartition, SplitData
from fedspectra.errors import DomainError
from fedspectra.nn import LrSchedule, Network, backward, build_network, cross_entropy, kl_divergence, sgd_step


def toy_partition(rng, n_train=20, n_val=9, n_test=9, size=8):
    def split(n):
        images = rng.normal(size=(n, 1, size, size))
        labels = rng.integers(0, 3, size=n)
        return SplitData(images, labels)

    return ClientPartition(0, split(n_train), split(n_val), split(n_test))


def record_eval_forwards(monkeypatch, state):
    """Log (model, batch length) for every eval-mode forward pass."""
    names = {id(state.personalized): "q", id(state.deputy): "c"}
    seen = []
    forward = Network.forward

    def logged(net, batch, train=False):
        if not train:
            seen.append((names[id(net)], len(batch)))
        return forward(net, batch, train)

    monkeypatch.setattr(Network, "forward", logged)
    return seen


def make_state(rng, lambda1=0.6, lambda2=0.8, **kw):
    init = np.random.default_rng(42)
    q = build_network("tiny_mlp", 1, 8, 8, 3, init)
    c = build_network("tiny_mlp", 1, 8, 8, 3, init)
    c.import_parameters(q.parameters())
    return ClientState(
        client_id=0,
        personalized=q,
        deputy=c,
        data=toy_partition(rng),
        lambda1=lambda1,
        lambda2=lambda2,
        **kw,
    )


class TestOnReceive:
    def test_deputy_replaced_personalized_untouched(self, rng):
        state = make_state(rng)
        q_before = state.personalized.parameters()
        incoming = state.deputy.parameters()
        for e in incoming.entries:
            e.tensor = e.tensor + 1.0
        on_receive(state, incoming)
        assert state.deputy.parameters().identical(incoming)
        assert state.personalized.parameters().identical(q_before)

    def test_phase_reset(self, rng):
        state = make_state(rng)
        state.phase = CtoPhase.REFINE
        on_receive(state, state.deputy.parameters())
        assert state.phase is CtoPhase.RETRIEVE

    def test_last_write_wins(self, rng):
        state = make_state(rng)
        first = state.deputy.parameters()
        second = first.copy()
        for e in second.entries:
            e.tensor = e.tensor * 2.0 + 1.0
        on_receive(state, first)
        on_receive(state, second)
        assert state.deputy.parameters().identical(second)


class TestMaybeAdvance:
    def test_guard_arithmetic_stays_retrieve(self, rng):
        state = make_state(rng)
        assert maybe_advance(state, 0.25, 0.5) is CtoPhase.RETRIEVE

    def test_guard_arithmetic_advances_to_reciprocate(self, rng):
        state = make_state(rng)
        assert maybe_advance(state, 0.35, 0.5) is CtoPhase.RECIPROCATE

    def test_guard_arithmetic_advances_to_refine(self, rng):
        state = make_state(rng)
        state.phase = CtoPhase.RECIPROCATE
        assert maybe_advance(state, 0.45, 0.5) is CtoPhase.REFINE

    def test_at_most_one_advance_per_call(self, rng):
        state = make_state(rng, lambda1=0.0, lambda2=0.0)
        assert maybe_advance(state, 1.0, 1.0) is CtoPhase.RECIPROCATE
        assert maybe_advance(state, 1.0, 1.0) is CtoPhase.REFINE

    def test_never_regresses(self, rng):
        state = make_state(rng)
        state.phase = CtoPhase.REFINE
        assert maybe_advance(state, 0.0, 1.0) is CtoPhase.REFINE

    def test_zero_lambdas_reach_refine_after_two_calls(self, rng):
        state = make_state(rng, lambda1=0.0, lambda2=0.0)
        maybe_advance(state, 0.0, 0.9)
        maybe_advance(state, 0.0, 0.9)
        assert state.phase is CtoPhase.REFINE

    def test_strict_lambdas_never_leave_retrieve(self, rng):
        state = make_state(rng, lambda1=1.0, lambda2=1.0)
        for _ in range(10):
            maybe_advance(state, 0.49, 0.5)  # phi_c < phi_q always
        assert state.phase is CtoPhase.RETRIEVE

    def test_lambda_ordering_enforced(self, rng):
        with pytest.raises(DomainError):
            make_state(rng, lambda1=0.9, lambda2=0.5)


class TestTrainBatch:
    def _batch(self, rng):
        return rng.normal(size=(6, 1, 8, 8)), rng.integers(0, 3, size=6)

    def test_retrieve_kl_term_zero_when_models_equal(self, rng):
        state = make_state(rng)  # q and c identical at init
        batch, labels = self._batch(rng)
        probs = state.deputy.forward(batch)
        _, loss_c = train_batch(state, batch, labels, 0, LrSchedule())
        assert loss_c == pytest.approx(cross_entropy(probs, labels), abs=1e-9)

    @pytest.mark.parametrize(
        "phase,q_moves,c_moves",
        [
            (CtoPhase.RETRIEVE, True, True),
            (CtoPhase.RECIPROCATE, True, True),
            (CtoPhase.REFINE, True, True),
        ],
    )
    def test_update_scope(self, rng, phase, q_moves, c_moves):
        state = make_state(rng)
        state.phase = phase
        batch, labels = self._batch(rng)
        q_before = state.personalized.parameters()
        c_before = state.deputy.parameters()
        train_batch(state, batch, labels, 0, LrSchedule())
        assert state.personalized.parameters().identical(q_before) != q_moves
        assert state.deputy.parameters().identical(c_before) != c_moves

    def test_refine_deputy_frozen_when_flag_off(self, rng):
        state = make_state(rng, refine_trains_deputy=False)
        state.phase = CtoPhase.REFINE
        batch, labels = self._batch(rng)
        c_before = state.deputy.parameters()
        train_batch(state, batch, labels, 0, LrSchedule())
        assert state.deputy.parameters().identical(c_before)

    @pytest.mark.parametrize(
        "phase,teachers",
        [
            (CtoPhase.RETRIEVE, ["q"]),
            (CtoPhase.RECIPROCATE, ["q", "c"]),
            (CtoPhase.REFINE, ["c"]),
        ],
    )
    @pytest.mark.parametrize("refine_trains_deputy", [True, False])
    def test_only_read_teachers_run(self, rng, monkeypatch, phase, teachers, refine_trains_deputy):
        state = make_state(rng, refine_trains_deputy=refine_trains_deputy)
        state.phase = phase
        batch, labels = self._batch(rng)
        seen = record_eval_forwards(monkeypatch, state)
        train_batch(state, batch, labels, 0, LrSchedule())
        assert seen == [(t, len(batch)) for t in teachers]

    def test_refine_frozen_deputy_loss_uses_teacher(self, rng):
        state = make_state(rng, refine_trains_deputy=False)
        state.phase = CtoPhase.REFINE
        batch, labels = self._batch(rng)
        expected = cross_entropy(state.deputy.forward(batch), labels)
        _, loss_c = train_batch(state, batch, labels, 0, LrSchedule())
        assert loss_c == expected

    def test_retrieve_q_update_independent_of_deputy(self, rng):
        # in retrieve, q trains with plain CE: its update must not depend on c
        batch = rng.normal(size=(6, 1, 8, 8))
        labels = rng.integers(0, 3, size=6)

        state = make_state(rng)
        for e in state.deputy.parameters().entries:
            pass  # c left at init
        train_batch(state, batch, labels, 0, LrSchedule())
        q_with_c = state.personalized.parameters()

        solo = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(42))
        state2 = make_state(rng)
        solo.import_parameters(state2.personalized.parameters())
        backward(solo, batch, labels)
        sgd_step(solo, 0, LrSchedule())
        assert solo.parameters().identical(q_with_c)

    @pytest.mark.parametrize("refine_trains_deputy", [True, False], ids=["refine", "frozen"])
    @pytest.mark.parametrize("mu", [0.0, 0.5], ids=["mu0", "mu0.5"])
    def test_matches_scripted_reference_simulation(self, rng, mu, refine_trains_deputy):
        # independent step-by-step re-implementation of the phase rules
        batch = rng.normal(size=(5, 1, 8, 8))
        labels = rng.integers(0, 3, size=5)
        sch = LrSchedule()
        # a FedProx anchor that differs from the weights, so mu > 0 moves them
        anchor = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(7)).parameters()

        state = make_state(rng, refine_trains_deputy=refine_trains_deputy)
        state.last_received = anchor
        assert not anchor.allclose(state.deputy.parameters(), atol=1e-3)
        phases = [CtoPhase.RETRIEVE, CtoPhase.RECIPROCATE, CtoPhase.REFINE]
        observed = []
        for phase in phases:
            state.phase = phase
            observed.append(train_batch(state, batch, labels, 0, sch, mu))

        init = np.random.default_rng(42)
        q = build_network("tiny_mlp", 1, 8, 8, 3, init)
        c = build_network("tiny_mlp", 1, 8, 8, 3, init)
        c.import_parameters(q.parameters())
        prox = (mu, anchor)  # the deputy's only
        expected = []
        for phase in phases:
            qt = q.forward(batch)
            ct = c.forward(batch)
            if phase is CtoPhase.RETRIEVE:
                pq = backward(q, batch, labels)
                sgd_step(q, 0, sch)
                lq = cross_entropy(pq, labels)
                pc = backward(c, batch, labels, teacher_probs=qt)
                sgd_step(c, 0, sch, prox=prox)
                lc = cross_entropy(pc, labels) + kl_divergence(qt, pc)
            elif phase is CtoPhase.RECIPROCATE:
                pc = backward(c, batch, labels, teacher_probs=qt)
                sgd_step(c, 0, sch, prox=prox)
                lc = cross_entropy(pc, labels) + kl_divergence(qt, pc)
                pq = backward(q, batch, labels, teacher_probs=ct)
                sgd_step(q, 0, sch)
                lq = cross_entropy(pq, labels) + kl_divergence(ct, pq)
            else:
                pq = backward(q, batch, labels, teacher_probs=ct)
                sgd_step(q, 0, sch)
                lq = cross_entropy(pq, labels) + kl_divergence(ct, pq)
                if refine_trains_deputy:
                    pc = backward(c, batch, labels)
                    sgd_step(c, 0, sch, prox=prox)
                    lc = cross_entropy(pc, labels)
                else:  # the frozen deputy is only scored
                    lc = cross_entropy(ct, labels)
            expected.append((lq, lc))

        assert observed == expected
        assert state.personalized.parameters().identical(q.parameters())
        assert state.deputy.parameters().identical(c.parameters())


class TestEvaluate:
    def test_identical_models_equal_metric(self, rng):
        state = make_state(rng)
        phi_c, phi_q = evaluate(state, "val")
        assert phi_c == pytest.approx(phi_q, abs=1e-12)

    def test_perfect_model_scores_one(self, rng):
        state = make_state(rng)
        # make the task trivially separable for both models: single-label split
        n = 6
        images = np.zeros((n, 1, 8, 8))
        state.data.val.images = images
        state.data.val.labels = np.zeros(n, dtype=np.int64)
        probs = state.personalized.forward(images)
        forced = probs.argmax(axis=1)[0]
        state.data.val.labels[:] = forced
        phi_c, phi_q = evaluate(state, "val")
        # all predictions hit the single present class
        assert phi_q == pytest.approx(metric_expected(forced, probs.shape[1]))

    def test_one_full_split_forward_per_model(self, rng, monkeypatch):
        state = make_state(rng)
        seen = record_eval_forwards(monkeypatch, state)
        evaluate(state, "val")
        assert seen == [("c", len(state.data.val)), ("q", len(state.data.val))]

    def test_empty_split_rejected(self, rng):
        state = make_state(rng)
        state.data.test.images = state.data.test.images[:0]
        state.data.test.labels = state.data.test.labels[:0]
        with pytest.raises(DomainError):
            evaluate(state, "test")


def metric_expected(label, classes):
    # one present class predicted perfectly: that class scores F1=1,
    # absent classes score 0 under the 0/0 convention
    return 1.0 / classes
