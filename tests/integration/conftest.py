"""Shared fixtures for the composed-world integration tests."""

import pytest

from repro.resilience import PhiAccrualDetector


class PhiWork:
    """Counts ``PhiAccrualDetector.phi`` calls and the detectors built."""

    def __init__(self):
        self.calls = 0
        self.detectors = []

    @property
    def bound(self) -> int:
        """Most phi calls allowed when phi runs only past a key's calm
        deadline: one per suspicion onset plus one per key."""
        return sum(d.suspicions + len(d._intervals) for d in self.detectors)


@pytest.fixture
def phi_work(monkeypatch):
    work = PhiWork()
    phi = PhiAccrualDetector.phi
    init = PhiAccrualDetector.__init__

    def counting_phi(self, key):
        work.calls += 1
        return phi(self, key)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        work.detectors.append(self)

    monkeypatch.setattr(PhiAccrualDetector, "phi", counting_phi)
    monkeypatch.setattr(PhiAccrualDetector, "__init__", recording_init)
    return work
