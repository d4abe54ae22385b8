import numpy as np
import pytest

from subsim import coupling as cpl
from subsim.output import CsvLog


def config(**overrides):
    base = dict(
        linear_tol=0.02,
        angular_tol=0.1,
        insertion_force=50.0,
        extraction_force=60.0,
        travel_max=0.3,
        align_duration=2.0,
        cooldown=2.0,
    )
    base.update(overrides)
    return cpl.CouplingConfig(**base)


ALIGNED = cpl.RelativePose.from_offset_rpy(0.1, 0.0, 0.0)
MISALIGNED = cpl.RelativePose.from_offset_rpy(0.1, 0.5, 0.0)


def run_steps(state, cfg, steps, rel=ALIGNED, force=0.0, dt=0.1):
    events = []
    for _ in range(steps):
        state, ev = cpl.step(state, rel, force, dt, cfg)
        events.extend(ev)
    return state, events


@pytest.mark.parametrize("field", ["linear_tol", "angular_tol", "insertion_force", "extraction_force",
                                   "travel_max", "align_duration", "cooldown"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_config_fields_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive$"):
        config(**{field: value})


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_step_refuses_a_dt_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="^dt must be positive$"):
        cpl.step(cpl.CouplingState(cpl.Phase.FREE, 0.0, 0.0, 0.0), ALIGNED, 0.0, dt, config())


# --- alignment -------------------------------------------------------------------


def test_identical_frames_aligned():
    assert cpl.is_aligned(cpl.RelativePose.identity(), config())


def test_lateral_offset_blocks_alignment():
    cfg = config()
    pose = cpl.RelativePose.from_offset_rpy(0.0, 2.0 * cfg.linear_tol, 0.0)
    assert not cpl.is_aligned(pose, cfg)


def test_roll_boundary_behavior():
    cfg = config()
    ok = cpl.RelativePose.from_offset_rpy(0.0, 0.0, 0.0, roll=cfg.angular_tol * 0.99)
    bad = cpl.RelativePose.from_offset_rpy(0.0, 0.0, 0.0, roll=cfg.angular_tol * 1.01)
    assert cpl.is_aligned(ok, cfg)
    assert not cpl.is_aligned(bad, cfg)


def test_axial_distance_is_not_gated():
    assert cpl.is_aligned(cpl.RelativePose.from_offset_rpy(5.0, 0.0, 0.0), config())


# --- free -> joined gate ------------------------------------------------------------


def test_two_second_alignment_gate():
    cfg = config()
    state, events = run_steps(cpl.CouplingState(), cfg, steps=19)  # 1.9 s
    assert state.phase is cpl.Phase.FREE
    assert events == []
    state, events = cpl.step(state, ALIGNED, 0.0, 0.1, cfg)  # 2.0 s
    assert state.phase is cpl.Phase.JOINED
    assert events == ["joined"]


def test_alignment_must_be_sustained():
    cfg = config()
    state = cpl.CouplingState()
    for k in range(100):
        rel = ALIGNED if k % 3 else MISALIGNED  # interrupted every 3rd step
        state, events = cpl.step(state, rel, 0.0, 0.1, cfg)
        assert state.phase is cpl.Phase.FREE
        assert events == []
    assert state.align_timer < cfg.align_duration


# --- joined -> fixed -> free -----------------------------------------------------


def joined_state(cfg):
    state, _ = run_steps(cpl.CouplingState(), cfg, steps=20)
    assert state.phase is cpl.Phase.JOINED
    return state


def test_insertion_threshold_inclusive():
    cfg = config()
    state = joined_state(cfg)
    state, events = cpl.step(state, ALIGNED, cfg.insertion_force * 0.9, 0.1, cfg)
    assert state.phase is cpl.Phase.JOINED and events == []
    state, events = cpl.step(state, ALIGNED, cfg.insertion_force, 0.1, cfg)
    assert state.phase is cpl.Phase.FIXED
    assert events == ["fixed"]
    assert state.plug_travel == 0.0


def test_extraction_and_cooldown_blocking():
    cfg = config()
    state = joined_state(cfg)
    state, _ = cpl.step(state, ALIGNED, cfg.insertion_force, 0.1, cfg)
    state, events = cpl.step(state, ALIGNED, cfg.extraction_force, 0.1, cfg)
    assert state.phase is cpl.Phase.FREE
    assert events == ["freed"]
    assert state.cooldown_timer == cfg.cooldown
    # Immediately realigned: nothing can happen until cooldown elapses
    # (20 steps) plus a fresh 2 s alignment (20 steps).
    state, events = run_steps(state, cfg, steps=39)
    assert state.phase is cpl.Phase.FREE
    assert events == []
    state, events = cpl.step(state, ALIGNED, 0.0, 0.1, cfg)
    assert state.phase is cpl.Phase.JOINED


def test_full_cycle_event_order():
    cfg = config()
    state = cpl.CouplingState()
    log = []
    timeline = [(ALIGNED, 0.0)] * 25 + [(ALIGNED, 55.0)] * 2 + [(ALIGNED, 70.0)] * 2
    for rel, force in timeline:
        state, events = cpl.step(state, rel, force, 0.1, cfg)
        log.extend(events)
    assert log == ["joined", "fixed", "freed"]


# --- constrained pose -------------------------------------------------------------


def test_constrained_pose_projects_lateral_offsets():
    cfg = config()
    state = cpl.CouplingState(phase=cpl.Phase.JOINED)
    proposed = cpl.RelativePose.from_offset_rpy(0.12, 0.05, -0.02, yaw=0.2)
    out = cpl.constrained_pose(state, proposed, cfg)
    assert np.allclose(out.offset, [0.12, 0.0, 0.0])
    assert np.array_equal(out.rotation, np.eye(3))


def test_constrained_pose_clamps_travel():
    cfg = config()
    state = cpl.CouplingState(phase=cpl.Phase.JOINED)
    below = cpl.constrained_pose(state, cpl.RelativePose.from_offset_rpy(-0.1, 0.0, 0.0), cfg)
    assert below.offset[0] == 0.0
    beyond = cpl.constrained_pose(state, cpl.RelativePose.from_offset_rpy(0.5, 0.0, 0.0), cfg)
    assert beyond.offset[0] == cfg.travel_max


def test_constrained_pose_fixed_pins_everything():
    out = cpl.constrained_pose(
        cpl.CouplingState(phase=cpl.Phase.FIXED),
        cpl.RelativePose.from_offset_rpy(0.2, 0.1, 0.1, roll=0.3),
        config(),
    )
    assert np.array_equal(out.offset, np.zeros(3))


def test_constrained_pose_free_raises():
    with pytest.raises(cpl.CalledInFreeError):
        cpl.constrained_pose(cpl.CouplingState(), cpl.RelativePose.identity(), config())


# --- reachability fuzz -------------------------------------------------------------

_LEGAL = {
    (cpl.Phase.FREE, cpl.Phase.FREE),
    (cpl.Phase.FREE, cpl.Phase.JOINED),
    (cpl.Phase.JOINED, cpl.Phase.JOINED),
    (cpl.Phase.JOINED, cpl.Phase.FIXED),
    (cpl.Phase.FIXED, cpl.Phase.FIXED),
    (cpl.Phase.FIXED, cpl.Phase.FREE),
}


def test_random_fuzz_never_leaves_legal_edges():
    cfg = config()
    rng = np.random.default_rng(55)
    poses = [ALIGNED, MISALIGNED, cpl.RelativePose.from_offset_rpy(0.0, 0.0, 0.0, pitch=0.5)]
    state = cpl.CouplingState()
    for _ in range(20_000):
        rel = poses[rng.integers(len(poses))]
        force = rng.uniform(-20.0, 120.0)
        dt = rng.uniform(0.01, 0.5)
        new_state, _ = cpl.step(state, rel, force, dt, cfg)
        assert (state.phase, new_state.phase) in _LEGAL
        assert 0.0 <= new_state.plug_travel <= cfg.travel_max
        state = new_state


def test_step_is_deterministic():
    cfg = config()
    s1, e1 = cpl.step(cpl.CouplingState(), ALIGNED, 10.0, 0.1, cfg)
    s2, e2 = cpl.step(cpl.CouplingState(), ALIGNED, 10.0, 0.1, cfg)
    assert s1 == s2 and e1 == e2


# --- log format --------------------------------------------------------------------


def test_force_published_only_when_joined_or_fixed(tmp_path):
    path = tmp_path / "coupling.csv"
    with CsvLog(path, cpl.LOG_HEADER) as log:
        log.row(cpl.log_row(1.0, cpl.CouplingState(), [5.0, 0.0, 0.0], []))
        log.row(cpl.log_row(2.0, cpl.CouplingState(phase=cpl.Phase.JOINED), [5.0, 1.0, -1.0], ["joined"]))
        log.row(cpl.log_row(2.5, cpl.CouplingState(phase=cpl.Phase.FIXED), [0.1, 0.0, 0.0], ["fixed", "x"]))
    assert path.read_bytes() == (b"time,phase,fx,fy,fz,event\n"
                                 b"1,free,,,,\n"
                                 b"2,joined,5,1,-1,joined\n"
                                 b"2.5,fixed,0.1,0,0,fixed+x\n")


def test_no_join_while_cooldown_runs_even_if_aligned():
    cfg = config(cooldown=5.0)
    state = cpl.CouplingState(cooldown_timer=5.0)
    elapsed = 0.0
    while state.cooldown_timer > 0.0:
        state, events = cpl.step(state, ALIGNED, 0.0, 0.25, cfg)
        elapsed += 0.25
        assert state.phase is cpl.Phase.FREE and events == []
    assert elapsed >= 5.0
