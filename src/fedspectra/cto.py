"""Per-client three-phase knowledge-transfer state machine.

Each client keeps a personalized model q and a deputy model c. The deputy
receives the server aggregate. `_LESSONS` is the phase law, who teaches whom:

  retrieve    q teaches c (c recovers from the aggregation shock)
  reciprocate mutual distillation between q and c
  refine      c teaches q (global knowledge lands in the personalized model)

A teacher's output is its prediction before either model updates. A
teacher trained by an earlier lesson of the batch lends that training
forward, equal bit for bit to an eval forward; any other teacher, and any
network with BatchNorm (whose training forward uses batch statistics), runs
an eval forward: q's in reciprocate, and c's in refine with it frozen.

Advancement is gated on validation performance: retrieve -> reciprocate
when phi(c) >= lambda1 * phi(q), reciprocate -> refine when
phi(c) >= lambda2 * phi(q). Receiving fresh server parameters resets the
machine to retrieve. The personalized model is never overwritten by the
server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import metrics
from .datasynth import ClientPartition
from .errors import DomainError
from .nn import BatchNorm, Network, backward, sgd_step
from .tensors import ParameterSet


class CtoPhase(enum.Enum):
    RETRIEVE = "retrieve"
    RECIPROCATE = "reciprocate"
    REFINE = "refine"


@dataclass
class ClientState:
    """A CTO client; implements the client protocol of `federation`."""

    client_id: int
    personalized: Network  # model q: private, never replaced by the server
    deputy: Network  # model c: receives server aggregates
    data: ClientPartition
    rng: Optional[np.random.Generator] = None  # batch order and augmentation
    lambda1: float = 0.6
    lambda2: float = 0.8
    phase: CtoPhase = CtoPhase.RETRIEVE
    refine_trains_deputy: bool = True
    last_received: Optional[ParameterSet] = None

    def __post_init__(self):
        if not (0.0 <= self.lambda1 <= self.lambda2 <= 1.0):
            raise DomainError(
                f"need 0 <= lambda1 <= lambda2 <= 1, got "
                f"({self.lambda1}, {self.lambda2})"
            )
        self.personalized.view().require_congruent(self.deputy.view())

    def step(self, images, labels, lr: float, mu: float) -> None:
        train_batch(self, images, labels, lr, mu)

    def end_epoch(self, epoch: int) -> dict:
        """Evaluate the phase guard on the validation split; the guard event."""
        phase_from = self.phase.value
        phi_c, phi_q = evaluate(self, "val")
        phase_to = maybe_advance(self, phi_c, phi_q).value
        return {
            "type": "guard",
            "epoch": epoch + 1,
            "client_id": self.client_id,
            "phase_from": phase_from,
            "phase_to": phase_to,
            "phi_c": round(phi_c, 12),
            "phi_q": round(phi_q, 12),
        }

    def upload(self) -> ParameterSet:
        return self.deputy.view()

    def receive(self, ps: ParameterSet) -> None:
        on_receive(self, ps)

    def models(self) -> Dict[str, Network]:
        return {"deputy": self.deputy, "personalized": self.personalized}

    def checkpoint_sets(self) -> Dict[str, ParameterSet]:
        """The deputy equals its received aggregate; the personalized model
        trains in place next round, so it is copied."""
        return {"deputy": self.last_received, "personalized": self.personalized.parameters()}


def on_receive(state: ClientState, aggregated: ParameterSet) -> None:
    """Install server parameters into the deputy and reset to retrieve;
    the aggregate itself, shared and only read, becomes the FedProx anchor."""
    state.deputy.import_parameters(aggregated)
    state.last_received = aggregated
    state.phase = CtoPhase.RETRIEVE


# Each phase's lessons, (student, teacher or None) in training order; a
# teacher adds KL(teacher || student) to the student's cross-entropy. A
# teacher trains first where it can, to lend its forward (module docstring).
_LESSONS = {
    CtoPhase.RETRIEVE: (("personalized", None), ("deputy", "personalized")),
    CtoPhase.RECIPROCATE: (("deputy", "personalized"), ("personalized", "deputy")),
    CtoPhase.REFINE: (("deputy", None), ("personalized", "deputy")),
}


def train_batch(
    state: ClientState,
    batch: np.ndarray,
    labels,
    lr: float,
    fedprox_mu: float = 0.0,
) -> None:
    """One phase-dependent update on both models: per lesson, `backward`
    then `sgd_step`.

    Teacher distributions follow the module docstring's teacher rule and
    are constants during differentiation. The optional proximal term
    anchors the deputy to the last received server parameters. With
    `refine_trains_deputy` off, refine's deputy lesson is dropped.
    """
    models = state.models()
    lessons = _LESSONS[state.phase]
    if state.phase is CtoPhase.REFINE and not state.refine_trains_deputy:
        lessons = [(s, t) for s, t in lessons if s != "deputy"]
    students = [s for s, _ in lessons]
    probs = {
        t: models[t].forward(batch, train=False)
        for i, (_, t) in enumerate(lessons)
        if t and (t not in students[:i] or _has_batchnorm(models[t]))
    }
    for student, teacher in lessons:
        net = models[student]
        out = backward(net, batch, labels, teacher_probs=probs.get(teacher))
        probs.setdefault(student, out)  # lent unless an eval forward was taken
        prox = (fedprox_mu, state.last_received) if student == "deputy" else None
        sgd_step(net, lr, prox=prox)


def _has_batchnorm(net: Network) -> bool:
    return any(isinstance(layer, BatchNorm) for _, layer in net.layers)


def maybe_advance(state: ClientState, phi_c: float, phi_q: float) -> CtoPhase:
    """Advance at most one phase if the guard for the next phase holds.

    Phases never regress within a communication interval.
    """
    if state.phase is CtoPhase.RETRIEVE and phi_c >= state.lambda1 * phi_q:
        state.phase = CtoPhase.RECIPROCATE
    elif state.phase is CtoPhase.RECIPROCATE and phi_c >= state.lambda2 * phi_q:
        state.phase = CtoPhase.REFINE
    return state.phase


def evaluate(state: ClientState, split: str) -> Tuple[float, float]:
    """Macro-F1 of deputy and personalized models on the given split."""
    data = state.data.split(split)
    if len(data) == 0:
        raise DomainError(f"split {split!r} of client {state.client_id} is empty")
    phis = []
    for model in (state.deputy, state.personalized):
        probs = model.forward(data.images)
        cm = metrics.confusion_matrix(data.labels, probs.argmax(axis=1), probs.shape[1])
        phis.append(metrics.macro_f1(cm))
    return phis[0], phis[1]
