"""A sample's results do not depend on the other samples of its batch.

Each batched kernel is run on a batch and on every sample of it alone; the
per-sample outputs must agree bit for bit.
"""
import numpy as np
import pytest

from warpflow import engine, scenarios
from warpflow.criterion import _chunk_pipeline, sample_thetas


def _start_arrays(spec, thetas):
    vel = [th.frame_velocity(spec) for th in thetas]
    return (np.array([th.x for th in thetas]), np.array([v[0] for v in vel]),
            np.stack([v[1] for v in vel]))


def test_frame_and_curvature_tables_are_per_sample(anosov_spec):
    # seed 3, samples 2-7: poles and oblique data of differing slices
    thetas = sample_thetas(anosov_spec, 14, seed=3)[0][2:8]

    def run(x0, u00, u):
        return engine.integrate_states(anosov_spec, *engine.slice_state(x0, u00, u), t0=0.0, t1=4.0, step=0.02,
                                       store=False)

    x0, u00, u = _start_arrays(anosov_spec, thetas)
    batch = run(x0, u00, u)
    solo = [run(x0[s:s + 1], u00[s:s + 1], u[s:s + 1]) for s in range(len(thetas))]
    for s, alone in enumerate(solo):
        assert np.array_equal(batch["curvatures"][:, s], alone["curvatures"][:, 0])
        frame_alone = engine.start_frame(u00[s:s + 1], u[s:s + 1])
        for part, part_alone in zip(engine.start_frame(u00, u), frame_alone):
            assert np.array_equal(part[s], part_alone[0])
        assert np.array_equal(batch["max_unit_defect"][s], alone["max_unit_defect"][0])
        assert np.array_equal(batch["final_state"][:, s], alone["final_state"][:, 0])


@pytest.mark.parametrize("name", list(scenarios.SCENARIOS))
def test_stored_and_unstored_runs_agree(name):
    # a stored run evaluates the full warp triple at every RK4 stage, an
    # unstored run only the slope; both tabulate the nodes' warp data a block
    # of nodes at a time (601 nodes: three blocks unstored, one stored).
    # x0 in [0, 2] keeps the counterexample's g' near its peak, large enough
    # that a slope one ulp off changes the state's rounding.
    spec = scenarios.build_scenario(name, n=2)
    x0, u00, u = _start_arrays(spec, sample_thetas(spec, 8, seed=5, x_span=2.0)[0])
    state, e = engine.slice_state(x0, u00, u)
    stored, unstored = (engine.integrate_states(spec, state, e, t0=0.0, t1=6.0, step=0.02, store=store)
                        for store in (True, False))
    assert np.array_equal(stored["curvatures"], unstored["curvatures"])
    assert np.array_equal(stored["final_state"][:3], unstored["final_state"])
    assert np.array_equal(stored["max_unit_defect"], unstored["max_unit_defect"])
    # the block evaluation gives the bits of a node-by-node one
    per_node = np.array([spec.log_triple(x) for x in stored["x"]])
    assert np.array_equal(np.stack(spec.log_triple(stored["x"]), axis=1), per_node)


def test_sweep_renormalization_is_per_sample():
    # constant curvature -k per sample: sinh growth crosses the threshold
    # only for k = 1 over r = 20; k = 1e-4 grows about linearly
    step, r = 0.1, 20.0
    nodes = 2 * int(round(r / step)) + 1
    t = 0.5 * step * np.arange(nodes)
    ks = (1.0, 1e-4, 0.01)
    table = np.empty((nodes, len(ks), 2))
    for s, k in enumerate(ks):
        table[:, s] = -k * np.array([1.0, 0.5])[None] * (1.0 + 0.3 * np.sin(t))[:, None]
    anchor = (nodes - 1) // 2
    span = 60

    # the sweep from the anchor: only the first sample is ever rescaled
    F = np.zeros((2, 1, len(ks), 2))
    F[1] = -1.0
    _, scales = engine.scalar_march(table, step, anchor, 0, F, 0, anchor)
    rescaled = scales.max(axis=(0, 1, 3)) > 0
    assert rescaled.tolist() == [True, False, False]

    y, yp, _ = engine.boundary_solve(table, step, anchor, 0, 0, span)
    for s in range(len(ks)):
        ys, yps, _ = engine.boundary_solve(table[:, s:s + 1], step, anchor, 0, 0, span)
        assert np.array_equal(y[:, s], ys[:, 0])
        assert np.array_equal(yp[:, s], yps[:, 0])


def test_ladder_freezes_each_sample(anosov_spec):
    # with r0 = 4 the pole and the oblique sample both certify at the second
    # rung (r = 8); each must give the bits it gives alone (samples frozen at
    # different rungs: test_mixed_rung_chunk_matches_solo_runs)
    thetas = sample_thetas(anosov_spec, 14, seed=3)[0]
    pair = [thetas[0], thetas[4]]
    kw = dict(step=0.02, horizon=2.0, green_tol=1e-8, green_r0=4.0, green_max_doublings=6,
              drift_tol=1e-5, series_stride=25)
    batch = _chunk_pipeline(anosov_spec, pair, **kw)
    for s, th in enumerate(pair):
        alone = _chunk_pipeline(anosov_spec, [th], **kw)
        for key in ("norms", "series_values", "Jnorms"):
            assert np.array_equal(batch[key][:, s], alone[key][:, 0]), key
        for key in ("green_gap", "green_ok", "max_unit_defect", "drifted", "degenerate"):
            assert np.array_equal(batch[key][s], alone[key][0]), key


def test_mixed_rung_chunk_matches_solo_runs(anosov_spec, monkeypatch):
    # at tol 1e-5 the first rung (r = 4) certifies some of these six samples
    # alone and the others need the growth to r = 8; in one chunk every
    # sample keeps the bits it has alone
    thetas = sample_thetas(anosov_spec, 6, seed=3)[0]
    kw = dict(step=0.02, horizon=2.0, green_tol=1e-5, green_r0=4.0, green_max_doublings=6,
              drift_tol=1e-5, series_stride=25)
    legs = []
    integrate = engine.integrate_states

    def counting(*args, **kwargs):
        legs.append(None)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(engine, "integrate_states", counting)
    batch = _chunk_pipeline(anosov_spec, thetas, **kw)
    assert batch["green_ok"].all()
    solo_legs = []
    for s, th in enumerate(thetas):
        legs.clear()
        alone = _chunk_pipeline(anosov_spec, [th], **kw)
        solo_legs.append(len(legs))
        for key in ("norms", "series_values", "Jnorms"):
            assert np.array_equal(batch[key][:, s], alone[key][:, 0]), key
        for key in ("green_gap", "max_unit_defect"):
            assert np.array_equal(batch[key][s], alone[key][0]), key
    assert sorted(set(solo_legs)) == [1, 2]
