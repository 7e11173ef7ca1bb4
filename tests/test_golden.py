"""Frozen end-to-end results of seeded fits.

Each case draws rows from a bundled design with ``trial_rng(11, 0)`` and
fits them with ``FitParams(seed=3)``: n=150 rows, or the third element of
the case's key.  The n=4,000 case runs the per-row passes (region indices,
memberships, designs, region keys and the scan's prefix sums) at a size
where their vectorized forms matter.  The thresholds, region masks, MDL
total and search counters below were recorded from the implementation; a
change to the fitting kernels, the criterion or the swarm that alters any
of them fails here.
"""

import pytest

from partwise import FitParams, fit_model
from partwise.simulate import SETTINGS, generate, trial_rng

GOLDEN = {
    ("reg1", None): dict(
        thresholds={0: [4.012560979685517], 2: [8.475912485207282]},
        masks=[[0, 1, 1, 1, 1]] * 4,
        total=89.11213770068416,
        evaluations=193,
        bpso_iterations=6,
    ),
    ("reg2", None): dict(
        thresholds={0: [5.9931461731023195], 3: [1.4983905517251919]},
        masks=[[0, 0, 1, 1, 0]] * 4,
        total=73.9592991558547,
        evaluations=171,
        bpso_iterations=7,
    ),
    ("cls1", "probit"): dict(
        thresholds={0: [9.155665987091734, 20.109989018456332]},
        masks=[[0, 1, 1, 0]] * 3,
        total=46.81197601566157,
        evaluations=230,
        bpso_iterations=7,
    ),
    ("cls2", "logistic"): dict(
        thresholds={0: [3.5], 2: [-0.06882147083634127]},
        masks=[[1, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]],
        total=64.59530865297015,
        evaluations=197,
        bpso_iterations=6,
    ),
    ("reg1", None, 4000): dict(
        thresholds={0: [4.009755932230739], 2: [8.499652793586103]},
        masks=[[0, 1, 1, 1, 1]] * 4,
        total=89.4247032995327,
        evaluations=220,
        bpso_iterations=9,
    ),
}


@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_seeded_fit_is_frozen(case):
    want = GOLDEN[case]
    setting, link, n = (*case, 150)[:3]
    data = generate(SETTINGS[setting], n, trial_rng(11, 0), link=link)
    out = fit_model(data, link or "regression", FitParams(seed=3))
    model = out.model
    assert {j: list(ts) for j, ts in model.config.breaks} == want["thresholds"]
    assert [f.mask.astype(int).tolist() for f in model.region_fits] == want["masks"]
    assert model.mdl.total == pytest.approx(want["total"], rel=1e-12)
    assert out.evaluations == want["evaluations"]
    assert out.bpso_iterations == want["bpso_iterations"]
