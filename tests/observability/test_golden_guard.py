"""Byte-identical golden-trace guard for the kernel speed rearchitecture.

The existing golden tests (`test_golden.py`) compare *structured* documents
via :func:`repro.observability.golden.diff_documents`, which tolerates
benign formatting drift.  This guard is stricter: it re-runs every scenario
against the live kernel and asserts the canonical serialization of the
freshly captured document is **byte-for-byte identical** to the committed
file.  Any kernel change that perturbs event ordering, timestamps, trace
content, or serialization shows up here as a hard failure, making this the
conformance backstop for hot-path optimisations (two-tier dispatch, the
single fast run loop).
"""

from __future__ import annotations

import pytest

from repro.observability import golden
from repro.observability.scenarios import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recaptured_trace_is_byte_identical(name: str) -> None:
    path = golden.golden_path(name)
    assert path.exists(), (
        f"missing golden document for {name!r}; bless it with "
        f"`python -m repro.observability.golden --update {name}`"
    )
    fresh = golden.document_json(golden.capture(name))
    committed = path.read_text()
    assert fresh == committed, (
        f"scenario {name!r} no longer reproduces its committed golden "
        f"document byte-for-byte; the kernel's observable behavior drifted"
    )
