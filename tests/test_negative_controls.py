"""Negative controls: the certificate must reject a wrong pair of models.

Each mutant is monkeypatched into the micro or the limit model, and b1's own
ladder (eps 1/4, 1/8, 1/16) is run through `ts_error`.  Criterion 4 of the
acceptance gate is computed here: E_chan, E_bulk_plus and E_bulk_minus fall
strictly along the ladder, and E_chan(1/16) <= 0.6 E_chan(1/4).  Next to it
the observed order log2(E(1/8) / E(1/16)) of E_chan and of E_N must be at
least ORDER_MIN: criterion 4 certifies that the error falls, the order that
it falls at the rate of the correct pair.  The correct pair meets both with
every column falling; every mutant must fail the order bound, and all but the
lid mutant fail criterion 4 too.  The columns that do not fall under a mutant
and its last E_chan order are its row of the README table.  The channel
mutants fail `verify_operators` as well, before any run.
"""

import math
from pathlib import Path

import pytest

from chanhom import harness, macrosim, microsim
from chanhom.twoscale import Unfolder, ts_error

B1 = Path(__file__).resolve().parents[1] / "configs" / "b1.json"
COLUMNS = ("E_chan", "E_bulk_plus", "E_bulk_minus", "E_N")
# the correct pair's last orders are 1.07 on b1 and at least 1.037 at k = m in {4, 8},
# n_sigma in {32, 64, 128}; the mutants' are 0.35 and below, so 0.8 leaves room on both sides
ORDER_MIN = 0.8


def ladder_errors():
    """Each error column of b1's ladder, rung by rung."""
    cfg = harness.load_config(B1)
    sim, macro_snaps = harness.run_macro_study(cfg)
    errs = {col: [] for col in COLUMNS}
    for eps in cfg.epsilons:
        geom, grid, _, snaps = harness.run_micro_study(cfg, eps)
        row = ts_error(snaps, macro_snaps, Unfolder(geom, grid, sim.cell_grid), sim)
        for col in COLUMNS:
            errs[col].append(row[col])
    return errs


def falls(values):
    return all(b < a for a, b in zip(values, values[1:]))


def criterion_4(errs):
    chan = errs["E_chan"]
    return (falls(chan) and falls(errs["E_bulk_plus"]) and falls(errs["E_bulk_minus"])
            and chan[-1] <= 0.6 * chan[0])


def last_order(values):
    """Observed order log2(E(1/8) / E(1/16)) over the ladder's last pair of rungs."""
    return math.log2(values[-2] / values[-1])


def meets_order(errs):
    return min(last_order(errs["E_chan"]), last_order(errs["E_N"])) >= ORDER_MIN


def channel_scaling(monkeypatch, gamma):
    """Micro channel diffusivity eps^gamma * D in place of the critical eps * D."""
    assemble, tensor = microsim.assemble_micro_operator, microsim.channel_tensor

    def mutant(geom, grid, diff):
        factor = float(geom.eps) ** (gamma - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(microsim, "channel_tensor", lambda *args: factor * tensor(*args))
            return assemble(geom, grid, diff)

    monkeypatch.setattr(microsim, "assemble_micro_operator", mutant)


def channel_weight_one(monkeypatch):
    """Channel cells accumulate with weight 1 in place of 1/eps."""
    assemble = microsim.assemble_micro_operator
    monkeypatch.setattr(microsim, "assemble_micro_operator", lambda geom, grid, diff: (
        assemble(geom, grid, diff)[0], grid.cell_vol.copy()))


def limit_scaled(monkeypatch, *attrs):
    """The limit model with its coupling data `attrs` scaled by 1.1."""
    build = macrosim.MacroSimulation._build_coupling_data

    def mutant(self):
        build(self)
        for attr in attrs:
            setattr(self, attr, 1.1 * getattr(self, attr))

    monkeypatch.setattr(macrosim.MacroSimulation, "_build_coupling_data", mutant)


def test_the_correct_pair_meets_criterion_4_with_every_column_falling():
    errs = ladder_errors()
    assert criterion_4(errs) and all(falls(v) for v in errs.values()), errs
    assert meets_order(errs), errs


# each mutant with the columns that do not fall under it and whether it passes criterion 4
@pytest.mark.parametrize("mutate, caught_by, passes_4", [
    (lambda mp: channel_scaling(mp, 0.5), ["E_chan", "E_bulk_minus", "E_N"], False),
    (lambda mp: channel_scaling(mp, 2.0), ["E_chan", "E_bulk_minus", "E_N"], False),
    (channel_weight_one, ["E_chan", "E_bulk_minus", "E_N"], False),
    (lambda mp: limit_scaled(mp, "cell_diff"), ["E_chan", "E_N"], False),
    # every column falls (E_chan 4.79e-3 -> 2.54e-3, ratio 0.53), but at order 0.35
    (lambda mp: limit_scaled(mp, "top_coef", "bot_coef"), [], True),
], ids=["channel_eps_power_0.5", "channel_eps_power_2", "channel_weight_1",
        "limit_cell_diff_x1.1", "limit_lid_coupling_x1.1"])
def test_a_wrong_model_fails_criterion_4(monkeypatch, mutate, caught_by, passes_4):
    """Criterion 4 or, for the lid mutant, the order bound next to it."""
    mutate(monkeypatch)
    errs = ladder_errors()
    assert [col for col in COLUMNS if not falls(errs[col])] == caught_by, errs
    assert criterion_4(errs) is passes_4, errs
    assert not meets_order(errs), errs


# each channel mutant and the critical-scaling statement it trips on every rung
@pytest.mark.parametrize("mutate, statement", [
    (lambda mp: channel_scaling(mp, 0.5), "transmissibility"),
    (lambda mp: channel_scaling(mp, 2.0), "transmissibility"),
    (channel_weight_one, "weighted_volume"),
], ids=["channel_eps_power_0.5", "channel_eps_power_2", "channel_weight_1"])
def test_a_wrong_channel_scaling_fails_verify_operators(monkeypatch, mutate, statement):
    mutate(monkeypatch)
    worst, flat_max, ok = harness.verify_operators(harness.load_config(B1))
    assert not ok, worst
    for eps, res in worst.items():
        # off by a factor eps^(-1/2) or eps: at least 0.75 away from 1 on b1's ladder
        assert res[statement] >= 0.75, (eps, res)
        assert all(val == 0.0 for name, val in res.items() if name != statement), (eps, res)
