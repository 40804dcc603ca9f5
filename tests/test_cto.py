import numpy as np
import pytest

from fedspectra import cto
from fedspectra.cto import ClientState, CtoPhase, evaluate, maybe_advance, on_receive, train_batch
from fedspectra.datasynth import ClientPartition, SplitData
from fedspectra.errors import CongruenceError, DomainError
from fedspectra.nn import Network, backward, build_network, sgd_step

LR = 3e-3  # the default lr_initial, the first-epoch rate


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


def make_state(rng, lambda1=0.6, lambda2=0.8, arch="tiny_mlp", size=8, **kw):
    init = np.random.default_rng(42)
    q = build_network(arch, 1, size, size, 3, init)
    c = build_network(arch, 1, size, size, 3, init)
    c.import_parameters(q.parameters())
    return ClientState(
        client_id=0,
        personalized=q,
        deputy=c,
        data=toy_partition(rng, size=size),
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

    def test_incongruent_models_rejected(self, rng):
        init = np.random.default_rng(42)
        q = build_network("tiny_mlp", 1, 8, 8, 3, init)
        c = build_network("tiny_mlp", 1, 8, 8, 4, init)
        with pytest.raises(CongruenceError):
            ClientState(client_id=0, personalized=q, deputy=c, data=toy_partition(rng))


class TestTrainBatch:
    def _batch(self, rng):
        return rng.normal(size=(6, 1, 8, 8)), rng.integers(0, 3, size=6)

    def test_retrieve_kl_term_zero_when_models_equal(self, rng):
        # with q == c, the KL term's logit gradient (p - teacher) / n is zero
        state = make_state(rng)  # q and c identical at init
        batch, labels = self._batch(rng)
        plain = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(0))
        plain.import_parameters(state.deputy.parameters())
        train_batch(state, batch, labels, LR)
        backward(plain, batch, labels)
        sgd_step(plain, LR)
        assert state.deputy.parameters().identical(plain.parameters())

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
        train_batch(state, batch, labels, LR)
        assert state.personalized.parameters().identical(q_before) != q_moves
        assert state.deputy.parameters().identical(c_before) != c_moves

    def test_refine_deputy_frozen_when_flag_off(self, rng):
        state = make_state(rng, refine_trains_deputy=False)
        state.phase = CtoPhase.REFINE
        batch, labels = self._batch(rng)
        c_before = state.deputy.parameters()
        train_batch(state, batch, labels, LR)
        assert state.deputy.parameters().identical(c_before)

    @pytest.mark.parametrize(
        "phase,teachers",
        [
            (CtoPhase.RETRIEVE, []),  # q trains first and lends its forward
            (CtoPhase.RECIPROCATE, ["q"]),  # c trains first and lends its forward
            (CtoPhase.REFINE, []),  # c trains first unless frozen
        ],
    )
    @pytest.mark.parametrize("refine_trains_deputy", [True, False])
    def test_only_read_teachers_run(self, rng, monkeypatch, phase, teachers, refine_trains_deputy):
        # an eval forward runs only for a teacher no earlier lesson trains
        state = make_state(rng, refine_trains_deputy=refine_trains_deputy)
        state.phase = phase
        batch, labels = self._batch(rng)
        if phase is CtoPhase.REFINE and not refine_trains_deputy:
            teachers = ["c"]
        seen = record_eval_forwards(monkeypatch, state)
        train_batch(state, batch, labels, LR)
        assert seen == [(t, len(batch)) for t in teachers]

    @pytest.mark.parametrize(
        "phase,teachers",
        [
            (CtoPhase.RETRIEVE, ["q"]),
            (CtoPhase.RECIPROCATE, ["q", "c"]),
            (CtoPhase.REFINE, ["c"]),
        ],
    )
    def test_batchnorm_teachers_run_eval_forwards(self, rng, monkeypatch, phase, teachers):
        # a BatchNorm training forward uses batch statistics, so it lends nothing
        state = make_state(rng, arch="smallcnn_bn", size=10)
        state.phase = phase
        batch = rng.normal(size=(6, 1, 10, 10))
        seen = record_eval_forwards(monkeypatch, state)
        train_batch(state, batch, rng.integers(0, 3, size=6), LR)
        assert seen == [(t, len(batch)) for t in teachers]

    def test_retrieve_q_update_independent_of_deputy(self, rng):
        # in retrieve, q trains with plain CE: its update must not depend on c
        batch = rng.normal(size=(6, 1, 8, 8))
        labels = rng.integers(0, 3, size=6)

        state = make_state(rng)
        for e in state.deputy.parameters().entries:
            pass  # c left at init
        train_batch(state, batch, labels, LR)
        q_with_c = state.personalized.parameters()

        solo = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(42))
        state2 = make_state(rng)
        solo.import_parameters(state2.personalized.parameters())
        backward(solo, batch, labels)
        sgd_step(solo, LR)
        assert solo.parameters().identical(q_with_c)

    @pytest.mark.parametrize("refine_trains_deputy", [True, False], ids=["refine", "frozen"])
    @pytest.mark.parametrize("mu", [0.0, 0.5], ids=["mu0", "mu0.5"])
    def test_matches_scripted_reference_simulation(self, rng, mu, refine_trains_deputy):
        self._check_scripted_reference(rng, mu, refine_trains_deputy, "tiny_mlp", 8)

    @pytest.mark.parametrize("refine_trains_deputy", [True, False], ids=["refine", "frozen"])
    @pytest.mark.parametrize("mu", [0.0, 0.5], ids=["mu0", "mu0.5"])
    @pytest.mark.parametrize("arch", ["smallcnn", "smallcnn_bn"])
    def test_pooling_nets_match_scripted_reference(self, rng, arch, mu, refine_trains_deputy):
        self._check_scripted_reference(rng, mu, refine_trains_deputy, arch, 12)

    @staticmethod
    def _check_scripted_reference(rng, mu, refine_trains_deputy, arch, size):
        # independent step-by-step re-implementation of the phase rules,
        # every teacher an eval forward taken before either model updates
        batch = rng.normal(size=(5, 1, size, size))
        labels = rng.integers(0, 3, size=5)
        # a FedProx anchor that differs from the weights, so mu > 0 moves them
        anchor = build_network(arch, 1, size, size, 3, np.random.default_rng(7)).parameters()

        state = make_state(rng, refine_trains_deputy=refine_trains_deputy, arch=arch, size=size)
        state.last_received = anchor
        assert not anchor.allclose(state.deputy.parameters(), atol=1e-3)
        phases = [CtoPhase.RETRIEVE, CtoPhase.RECIPROCATE, CtoPhase.REFINE]

        init = np.random.default_rng(42)
        q = build_network(arch, 1, size, size, 3, init)
        c = build_network(arch, 1, size, size, 3, init)
        c.import_parameters(q.parameters())
        prox = (mu, anchor)  # the deputy's only
        for phase in phases:
            state.phase = phase
            assert train_batch(state, batch, labels, LR, mu) is None

            qt = q.forward(batch)
            ct = c.forward(batch)
            if phase is CtoPhase.RETRIEVE:
                backward(q, batch, labels)
                sgd_step(q, LR)
                backward(c, batch, labels, teacher_probs=qt)
                sgd_step(c, LR, prox=prox)
            elif phase is CtoPhase.RECIPROCATE:
                backward(c, batch, labels, teacher_probs=qt)
                sgd_step(c, LR, prox=prox)
                backward(q, batch, labels, teacher_probs=ct)
                sgd_step(q, LR)
            else:
                backward(q, batch, labels, teacher_probs=ct)
                sgd_step(q, LR)
                if refine_trains_deputy:  # else the deputy stays frozen
                    backward(c, batch, labels)
                    sgd_step(c, LR, prox=prox)
            assert state.personalized.parameters().identical(q.parameters()), phase
            assert state.deputy.parameters().identical(c.parameters()), phase


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
