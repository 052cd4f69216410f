"""Seeded benchmark inputs: CSI rows, frozen plans on disk, reference answers.

Everything here is built from ``--seed`` before any clock starts:

* CSI rows come from the simulated acquisition chain
  (:class:`repro.data.recording.CollectionCampaign`, 20 Hz, 64
  subcarriers).  The first slice fits the scaler and the guard's
  reference statistics; the disjoint rest is the serving pool.
* Each plan is the paper MLP (``build_paper_mlp(64, PAPER_HIDDEN_SIZES)``)
  at its initial weights with the fitted scaler folded in, frozen with
  :meth:`InferencePlan.from_model` and written with
  :func:`repro.deploy.export.export_plan`.  Init weights and trained
  weights run the very same operations, so training buys the benchmark
  nothing.
* The reference answer of every (plan, row) pair comes from the in-memory
  plan over the whole pool at once — a different batch shape and a
  different object from what the serving path loads, which is what the
  correctness gate compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.baselines.scaler import StandardScaler
from repro.config import CampaignConfig
from repro.core.model_zoo import PAPER_HIDDEN_SIZES, build_paper_mlp
from repro.data.recording import CollectionCampaign
from repro.deploy.export import export_plan
from repro.fastpath.plan import InferencePlan
from repro.guard.drift import ReferenceStats

#: Rows the campaign records; a quarter fits the scaler, the rest serve.
DEFAULT_ROWS = 4096

#: The paper's sniffer rate.
FRAME_RATE_HZ = 20.0


@dataclass(frozen=True)
class Inputs:
    """Everything a workload needs, generated once per run."""

    seed: int
    #: Rows the scaler and the guard's reference statistics are fitted on.
    fit_rows: np.ndarray
    #: The serving pool (disjoint from ``fit_rows``), float64.
    rows: np.ndarray
    reference_stats: ReferenceStats
    #: ``plan_paths[k]`` holds plan ``k`` as an ``.npz`` archive.
    plan_paths: tuple[Path, ...]
    #: ``reference[k, i]`` is plan ``k``'s P(occupied) for ``rows[i]``.
    reference: np.ndarray

    @property
    def n_features(self) -> int:
        return int(self.rows.shape[1])

    def rng(self, *stream: int) -> np.random.Generator:
        """An independent generator for one named stream of this seed."""
        return np.random.default_rng([self.seed, *stream])


def make_inputs(seed: int, n_plans: int, workdir: Path, n_rows: int = DEFAULT_ROWS) -> Inputs:
    """Record rows, fit the scaler, and write ``n_plans`` plans to ``workdir``."""
    config = CampaignConfig(
        duration_h=n_rows / FRAME_RATE_HZ / 3600.0,
        sample_rate_hz=FRAME_RATE_HZ,
        seed=seed,
    )
    csi = CollectionCampaign(config).run().csi
    n_fit = len(csi) // 4
    fit_rows, rows = csi[:n_fit], csi[n_fit:]
    scaler = StandardScaler().fit(fit_rows)
    paths = []
    reference = np.empty((n_plans, len(rows)))
    for k in range(n_plans):
        model_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        model = build_paper_mlp(rows.shape[1], PAPER_HIDDEN_SIZES, seed=model_seed)
        plan = InferencePlan.from_model(model, scaler=scaler)
        paths.append(export_plan(plan, Path(workdir) / f"plan-{k}.npz"))
        reference[k] = plan.predict_proba(rows)
    return Inputs(
        seed=seed,
        fit_rows=fit_rows,
        rows=rows,
        reference_stats=ReferenceStats.fit(fit_rows),
        plan_paths=tuple(paths),
        reference=reference,
    )
