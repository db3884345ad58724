"""The ``train_lkp`` workload: ``Trainer.fit`` of MF with LkP-NPS.

Each round rebuilds the set-up (dataset, split, diversity pairs, the
rank-16 diversity kernel fit, the criterion), fits the model, and
probes the host.  Every fit starts from the same seeds, so every fit
must repeat the first one's losses and test metrics bit for bit.

The dataset and training seeds are fixed rather than drawn from
``--seed``: test NDCG@10 on this dataset moves by about a third across
training seeds, which would swamp any bound on ``relevance``.
"""

from __future__ import annotations

import time

import numpy as np

from measure import Gate, ProgramPeak, Round, another_round, normalised_timings
from repro.autodiff import optim
from repro.data import beauty_like, mine_diversity_pairs
from repro.dpp import DiversityKernelConfig, DiversityKernelLearner
from repro.losses import make_lkp_variant
from repro.models import MFRecommender
from repro.train import TrainConfig, Trainer

#: ``repro.autodiff`` is bound by the interpreter, so training timings
#: are divided by the pure-Python probe part.
PROBE_PARTS = ("py",)

DATASET_SEED = 11
TRAIN_SEED = 2
EPOCHS = 20
EVAL_EVERY = 5


def setup():
    """Dataset, split, pair mining, diversity-kernel fit and criterion."""
    dataset = beauty_like(scale=1.0, seed=DATASET_SEED)
    split = dataset.split(np.random.default_rng(DATASET_SEED))
    pairs = mine_diversity_pairs(
        split, set_size=5, pairs_per_user=1, rng=np.random.default_rng(DATASET_SEED + 1)
    )
    learner = DiversityKernelLearner(
        dataset.num_items, DiversityKernelConfig(rank=16, epochs=5, lr=0.03)
    )
    learner.fit(pairs)
    criterion = make_lkp_variant(
        "NPS", diversity_factors=learner.factors_normalized(), k=5, n=5
    )
    return dataset, split, criterion


class StepClock:
    """Times each optimiser step from the previous one (or from the end
    of the previous epoch, so an epoch's first step carries the drawing
    of that epoch's instances)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self._last = time.perf_counter()
        self._original = optim.Adam.step

    def epoch_callback(self, _epoch, _model) -> None:
        self._last = time.perf_counter()

    def __enter__(self) -> "StepClock":
        original = self._original

        def step(optimizer):
            original(optimizer)
            now = time.perf_counter()
            self.latencies.append(now - self._last)
            self._last = now

        optim.Adam.step = step
        return self

    def __exit__(self, *exc_info) -> None:
        optim.Adam.step = self._original


def install_spans(tracer) -> None:
    tracer.wrap("repro.data.samplers:GroundSetSampler.instances", "data.instances")
    tracer.wrap("repro.models.mf:MFRecommender.representations", "models.representations")
    tracer.wrap("repro.losses.lkp:LkPCriterion.batch_loss", "losses.batch_loss")
    tracer.wrap("repro.autodiff.tensor:Tensor.backward", "autodiff.backward")
    tracer.wrap("repro.autodiff.optim:Adam.step", "autodiff.optim_step")
    tracer.wrap("repro.train.trainer:evaluate_model", "eval.evaluate")
    tracer.wrap("repro.losses.lkp:batched_differentiable_log_esp", "dpp.diff_log_esp")
    tracer.wrap("repro.dpp.diversity_kernel:DiversityKernelLearner.fit", "dpp.kernel_fit")


def run(seed: int, seconds: float, probe, tracer=None) -> dict:
    del seed  # the inputs are fixed; see the module docstring
    clock = time.perf_counter
    memory = ProgramPeak()
    gate = Gate()
    rounds: list[Round] = []
    fits: list[tuple[float, float]] = []
    first = None
    probe.measure()
    if tracer is not None:
        install_spans(tracer)
    began = clock()
    try:
        while another_round(rounds, began, seconds):
            current = Round(start=clock())
            dataset, split, criterion = setup()
            current.setup_s = clock() - current.start
            probe.measure()
            model = MFRecommender(dataset.num_users, dataset.num_items, dim=16, rng=TRAIN_SEED)
            steps = StepClock()
            trainer = Trainer(
                model, criterion, split,
                TrainConfig(
                    epochs=EPOCHS, lr=0.05, batch_size=64, patience=0,
                    eval_every=EVAL_EVERY, seed=TRAIN_SEED,
                ),
                epoch_callback=steps.epoch_callback,
            )
            with steps:
                fit_start = clock()
                result = trainer.fit()
                fit_end = clock()
            fits.append((fit_start, fit_end))
            current.latencies = steps.latencies
            current.work, current.work_s = len(steps.latencies), fit_end - fit_start
            test = trainer.evaluate(target="test")
            outcome = (result.losses(), test["Nd@10"], test["CC@10"])
            if first is None:
                first = outcome
            for epoch, loss in enumerate(outcome[0]):
                expected = first[0][epoch] if epoch < len(first[0]) else None
                gate.record(
                    None if np.isfinite(loss) and loss == expected
                    else f"fit {len(rounds)} epoch {epoch + 1}: loss {loss!r}, first fit {expected!r}"
                )
            if outcome[1:] != first[1:]:
                gate.record(f"fit {len(rounds)}: test metrics {outcome[1:]} != {first[1:]}")
            probe.measure()
            current.end = clock()
            rounds.append(current)
    finally:
        if tracer is not None:
            tracer.restore()
    measured_s = clock() - began
    timings = normalised_timings(rounds, probe, PROBE_PARTS)
    result = {
        "gate": gate,
        "timings": timings,
        "end_to_end": {
            **timings["normalised"],
            "success_rate": (gate.attempted - gate.failed) / max(gate.attempted, 1),
            "relevance": first[1],
            "diversity": first[2],
            "peak_rss_mb": memory.peak_mb(),
        },
        "layers": {},
        "measured_s": measured_s,
        "memory": memory.detail(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, fits)
    return result


def layer_metrics(tracer, fits) -> dict:
    def inside(span):
        return any(start <= span[2] <= end for start, end in fits)

    def mean_ms(name, within_fits=True):
        found = [s for s in tracer.by_name(name) if inside(s) or not within_fits]
        return sum(s[3] - s[2] for s in found) / len(found) * 1e3 if found else 0.0, len(found)

    out = {}
    for name in ("data.instances", "models.representations", "losses.batch_loss",
                 "autodiff.backward", "autodiff.optim_step", "eval.evaluate"):
        out[f"{name}_ms"] = mean_ms(name)[0]
    out["dpp.diff_log_esp_ms"], out["dpp.diff_log_esp_calls"] = mean_ms("dpp.diff_log_esp")
    out["dpp.kernel_fit_ms"] = mean_ms("dpp.kernel_fit", within_fits=False)[0]
    fit_s = sum(end - start for start, end in fits)
    explained = sum(s[3] - s[2] for s in tracer.spans if s[4] == -1 and inside(s))
    out["trace.explained_frac"] = explained / fit_s
    out["trace.residual_ms"] = (fit_s - explained) * 1e3 / len(fits)
    return out
