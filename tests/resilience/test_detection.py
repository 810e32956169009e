"""Heartbeats and phi-accrual failure detection."""

import math
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import PHI_MAX, HeartbeatEmitter, PhiAccrualDetector
from repro.sim import Environment, RandomStreams


def test_register_and_phi_starts_low():
    env = Environment()
    det = PhiAccrualDetector(env)
    det.register("a", 1.0)
    assert det.phi("a") == 0.0 or det.phi("a") < det.threshold
    assert not det.is_suspect("a")


def test_register_rejects_bad_interval():
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError):
        det.register("a", 0.0)


def test_unregistered_heartbeat_raises():
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(KeyError):
        det.heartbeat("ghost")


def test_phi_grows_with_silence():
    env = Environment()
    det = PhiAccrualDetector(env, min_std_s=0.1)
    det.register("a", 1.0)

    def probe(env):
        yield env.timeout(1.0)
        low = det.phi("a")
        yield env.timeout(9.0)
        high = det.phi("a")
        assert high > low
        assert high <= PHI_MAX

    env.process(probe(env))
    env.run()


def test_silent_component_becomes_suspect_and_heartbeat_clears():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0)
    det.register("a", 1.0)

    def scenario(env):
        # Regular heartbeats: never suspected.
        for _ in range(10):
            yield env.timeout(1.0)
            det.heartbeat("a")
            assert not det.is_suspect("a")
        # Then silence: suspicion must arise.
        yield env.timeout(30.0)
        assert det.is_suspect("a")
        assert det.suspected_at("a") is not None
        assert det.suspects() == ["a"]
        # It speaks again: cleared, and booked as false.
        det.heartbeat("a")
        assert not det.is_suspect("a")
        assert det.false_suspicions == 1

    env.process(scenario(env))
    env.run()
    assert det.suspicions == 1
    assert det.suspicion_log and det.suspicion_log[0][0] == "a"


def test_poll_records_onset_without_queries():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    det.register("a", 1.0)
    env.run(until=60.0)
    # Nobody ever called is_suspect; the poller recorded the onset.
    assert det.suspected_at("a") is not None


def test_detection_latency_requires_onset_after_failure():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    det.register("a", 1.0)
    env.run(until=60.0)
    assert det.detection_latency_s("a", failed_at=0.0) is not None
    # An onset before the claimed failure time is not a detection of it.
    assert det.detection_latency_s("a", failed_at=59.0) is None
    assert det.detection_latency_s("never-registered", 0.0) is None


def test_emitter_feeds_detector_and_suppresses_when_down():
    env = Environment()
    streams = RandomStreams(7)
    det = PhiAccrualDetector(env)
    up = {"a": True}
    emitter = HeartbeatEmitter(env, det, "a", 1.0,
                               rng=streams.get("hb-a"),
                               is_up=lambda: up["a"])

    def crash(env):
        yield env.timeout(10.0)
        up["a"] = False

    env.process(crash(env))
    env.run(until=20.0)
    assert emitter.sent > 0
    assert emitter.suppressed > 0
    assert det.heartbeats == emitter.sent


def test_emitter_with_jitter_requires_rng():
    """Regression: jitter > 0 without an rng used to silently phase-lock."""
    env = Environment()
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError, match="jitter > 0 requires a named rng"):
        HeartbeatEmitter(env, det, "a", 2.0)  # default jitter is 0.1


def test_emitter_with_explicit_zero_jitter_is_unjittered():
    env = Environment()
    det = PhiAccrualDetector(env)
    emitter = HeartbeatEmitter(env, det, "a", 2.0, jitter=0.0)
    env.run(until=10.0)
    assert emitter.sent == 4  # beats at 2, 4, 6, 8 (10.0 not reached)


def test_fault_free_emitters_never_suspected_across_seeds():
    """The acceptance property: bounded jitter, zero false suspicions."""
    for seed in (0, 1, 2):
        env = Environment()
        streams = RandomStreams(seed)
        det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
        for i in range(5):
            HeartbeatEmitter(env, det, f"m{i}", 1.0,
                             rng=streams.get(f"hb-m{i}"))
        env.run(until=120.0)
        assert det.suspicions == 0, f"seed {seed}"
        assert det.false_suspicions == 0, f"seed {seed}"
        assert det.suspects() == []


def test_threshold_above_phi_max_is_rejected():
    # phi is capped at PHI_MAX, so a higher threshold could never suspect.
    env = Environment()
    with pytest.raises(ValueError, match="PHI_MAX"):
        PhiAccrualDetector(env, threshold=PHI_MAX + 1.0)
    det = PhiAccrualDetector(env, threshold=PHI_MAX, poll_interval_s=1.0)
    det.register("a", 1.0)
    env.run(until=200.0)
    assert det.suspects() == ["a"]


def test_poll_records_simultaneous_onsets_in_str_order():
    env = Environment()
    det = PhiAccrualDetector(env, threshold=8.0, poll_interval_s=0.5)
    for key in ("w10", 3, "w2", "b"):
        det.register(key, 1.0)
    env.run(until=60.0)
    assert [key for key, _, _ in det.suspicion_log] == [3, "b", "w10", "w2"]
    assert len({at for _, at, _ in det.suspicion_log}) == 1


def test_validation_errors():
    env = Environment()
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, threshold=0.0)
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, window=0)
    with pytest.raises(ValueError):
        PhiAccrualDetector(env, poll_interval_s=0.0)
    det = PhiAccrualDetector(env)
    with pytest.raises(ValueError):
        HeartbeatEmitter(env, det, "a", 0.0)
    with pytest.raises(ValueError):
        HeartbeatEmitter(env, det, "a", 1.0, jitter=1.0)


def beat_regular(env, det, key, interval_s, n):
    """Advance the clock and deliver n perfectly regular heartbeats."""
    for _ in range(n):
        env.run(until=env.now + interval_s)
        det.heartbeat(key)


class TestPrimeDecayGuard:
    """Before ``min_samples`` real beats, the primed window is a guess and
    suspicion must be slower — but never impossible."""

    def test_early_silence_is_suspected_later_not_never(self):
        # After ONE real beat the naive detector (min_samples=1) trusts
        # its razor-thin window; the guarded one still widens the std
        # until min_samples beats arrive — so it suspects strictly
        # later, but it does suspect.
        def onset_after_one_beat(min_samples):
            env = Environment()
            det = PhiAccrualDetector(env, threshold=8.0,
                                     min_samples=min_samples, min_std_s=0.1)
            det.register("m", 1.0)
            env.run(until=1.0)
            det.heartbeat("m")
            t = 1.0
            while not det.is_suspect("m"):
                t += 0.1
                env.run(until=t)
                assert t < 60.0, "never suspected at all"
            return t, det
        t_naive, _ = onset_after_one_beat(1)
        t_guarded, guarded = onset_after_one_beat(3)
        assert t_naive < t_guarded
        assert guarded.suspicions == 1    # delayed, not prevented

    def test_guard_decays_with_each_real_beat(self):
        env = Environment()
        det = PhiAccrualDetector(env, min_samples=3, min_std_s=0.01)
        det.register("m", 1.0)
        stds = [det._window_stats("m")[1]]
        for _ in range(3):
            env.run(until=env.now + 1.0)
            det.heartbeat("m")
            stds.append(det._window_stats("m")[1])
        # 0 -> 1 -> 2 -> 3 observed beats: the widened std shrinks
        # monotonically and vanishes at min_samples.
        assert stds[0] > stds[1] > stds[2] > stds[3]
        assert stds[0] == pytest.approx(
            PhiAccrualDetector.PRIME_STD_FACTOR * 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector(Environment(), min_samples=0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(Environment(), variance_cv=0.0)


class TestSuspectReason:
    def test_regular_source_going_quiet_is_silence(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("steady", 1.0)
        beat_regular(env, det, "steady", 1.0, n=10)
        env.run(until=env.now + 30.0)      # it stops beating
        assert det.is_suspect("steady")
        assert det.suspect_reason("steady") == "silence"
        assert det.suspicions_by_reason == {"silence": 1, "variance": 0}
        assert det.suspicion_log[0][0] == "steady"
        assert det.suspicion_log[0][2] == "silence"

    def test_jittery_source_is_variance(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0, variance_cv=0.35)
        det.register("flaky", 1.0)
        # Alternate short/very-long gaps: window CV far above the
        # boundary, the gray/straggler signature.
        for i in range(12):
            env.run(until=env.now + (0.2 if i % 2 else 3.0))
            det.heartbeat("flaky")
        env.run(until=env.now + 40.0)
        assert det.is_suspect("flaky")
        assert det.suspect_reason("flaky") == "variance"
        assert det.suspicions_by_reason == {"silence": 0, "variance": 1}

    def test_never_heard_key_is_silence_by_definition(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("mute", 1.0)
        env.run(until=60.0)
        assert det.is_suspect("mute")
        assert det.suspect_reason("mute") == "silence"

    def test_reason_clears_with_the_suspicion(self):
        env = Environment()
        det = PhiAccrualDetector(env, threshold=8.0)
        det.register("m", 1.0)
        beat_regular(env, det, "m", 1.0, n=8)
        env.run(until=env.now + 30.0)
        assert det.is_suspect("m")
        det.heartbeat("m")                 # it was alive after all
        assert det.suspect_reason("m") is None
        assert det.false_suspicions == 1
        # The all-time reason ledger is never decremented.
        assert det.suspicions_by_reason["silence"] == 1


#: One step of a detector's life: a heartbeat or a query after ``dt``.
#: Queries may instead aim at the exact threshold crossing, offset by a
#: relative ``nudge``, which is where a shortcut could go wrong.
_STEPS = st.lists(
    st.tuples(st.sampled_from(["beat", "query", "aim"]),
              st.floats(min_value=1e-3, max_value=50.0),
              st.sampled_from([-1e-5, -2e-6, -1e-6, -5e-7, -1e-9, -1e-12,
                               0.0, 1e-12, 1e-9, 1e-6])),
    min_size=1, max_size=40)


@given(
    steps=_STEPS,
    expected_s=st.floats(min_value=1e-3, max_value=20.0),
    window=st.integers(min_value=1, max_value=12),
    min_std_s=st.floats(min_value=1e-3, max_value=5.0),
    min_samples=st.integers(min_value=1, max_value=6),
    threshold=st.one_of(
        st.floats(min_value=0.0, max_value=PHI_MAX, exclude_min=True),
        st.sampled_from([1e-9, 0.1, math.log10(2.0), 0.302, 1.0, 8.0,
                         299.99, PHI_MAX])),
)
@settings(max_examples=300, deadline=None)
def test_is_suspect_matches_brute_force_phi(steps, expected_s, window,
                                            min_std_s, min_samples,
                                            threshold):
    """``is_suspect`` agrees with ``phi(key) >= threshold`` at every
    query, onset times included, across the one-sample and prime-guard
    branches and thresholds at or below log10 2."""
    env = Environment()
    det = PhiAccrualDetector(env, threshold=threshold, window=window,
                             min_std_s=min_std_s, min_samples=min_samples)
    det.register("k", expected_s)
    onset = None
    for kind, dt, nudge in steps:
        at = env.now + dt
        if kind == "aim":
            mean, std = det._window_stats("k")
            z = -NormalDist().inv_cdf(min(10.0 ** -threshold, 0.5))
            aimed = det._last["k"] + (mean + z * std) * (1.0 + nudge)
            at = aimed if aimed > env.now else at
        env.run(until=at)
        if kind == "beat":
            det.heartbeat("k")
            onset = None
            continue
        if onset is None and det.phi("k") >= threshold:
            onset = env.now
        assert det.is_suspect("k") == (onset is not None)
        assert det.suspected_at("k") == onset
