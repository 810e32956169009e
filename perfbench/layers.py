"""The bench-owned layer map and profile bucketing.

The map is finer than ``repro.analysis.layers``: it splits ``sim`` into
kernel, network and monitor, and ``resilience`` into detection and
admission, so each per-layer metric names the code an optimisation
would touch. Patterns are paths relative to the ``repro`` package: a
file, or a package directory ending in ``/``. The longest matching
pattern wins (so ``faults/chaos.py`` is harness although ``faults/`` is
faults); a file matched by no pattern, or by two layers at the same
length, is an error that the layer-map test reports.
"""

from __future__ import annotations

import os
import pstats

HARNESS = "harness"

LAYERS = {
    "sim.kernel": ("sim/__init__.py", "sim/environment.py", "sim/events.py",
                   "sim/resources.py", "sim/rng.py"),
    "sim.network": ("sim/network.py",),
    "sim.monitor": ("sim/monitor.py", "sim/registry.py"),
    "faults": ("faults/",),
    "resilience.detection": ("resilience/__init__.py",
                             "resilience/detection.py"),
    "resilience.admission": ("resilience/admission.py",
                             "resilience/brownout.py"),
    "invariants": ("invariants/",),
    "replication": ("replication/",),
    "recovery": ("recovery/",),
    "scheduling": ("scheduling/",),
    "serverless": ("serverless/",),
    "observability": ("observability/",),
    "analysis": ("analysis/",),
    "campaign": ("campaign/",),
    HARNESS: ("__init__.py", "faults/chaos.py", "observability/scenarios.py"),
    "domains.other": ("p2p/", "graphalytics/", "mmog/", "autoscaling/",
                      "cluster/", "workload/", "bigdata/", "bibliometrics/",
                      "core/", "refarch/"),
}


def layers_of(relpath: str) -> set:
    """Every layer whose longest matching pattern matches ``relpath``
    (a ``/``-separated path relative to the ``repro`` package)."""
    best, found = -1, set()
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if pattern == relpath or (pattern.endswith("/")
                                      and relpath.startswith(pattern)):
                if len(pattern) > best:
                    best, found = len(pattern), {layer}
                elif len(pattern) == best:
                    found.add(layer)
    return found


class LayerMap:
    """Source file (absolute, as code objects name it) -> layer, or None
    for code outside the ``repro`` package."""

    def __init__(self, package_dir: str):
        self.root = os.path.realpath(package_dir) + os.sep
        self._cache: dict = {}

    def layer(self, filename: str):
        try:
            return self._cache[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        layer = None
        if path.startswith(self.root):
            rel = path[len(self.root):].replace(os.sep, "/")
            found = layers_of(rel)
            if len(found) != 1:
                raise KeyError(f"{rel} maps to layers {sorted(found)}")
            layer = found.pop()
        self._cache[filename] = layer
        return layer


def bucket(stats: pstats.Stats, layer_map: LayerMap) -> dict:
    """Self seconds per layer from a profile.

    Functions in the ``repro`` package are charged to their file's
    layer. Time in C functions and other code outside the package
    (stdlib, numpy, the bench itself) is charged to the callers, in
    proportion to the time it spent under each caller (pstats callers),
    walking up through callers that are themselves outside the package.
    Time with no caller in the package is charged to the harness.
    """
    table = stats.stats
    totals = {layer: 0.0 for layer in LAYERS}
    weights: dict = {}

    def split(func, column, visiting):
        """Layer -> fraction for one second spent inside ``func`` as
        seen by its callers; ``column`` 2 weighs edges by the callee's
        self time, 3 by its cumulative time."""
        key = (func, column)
        if key in weights:
            return weights[key]
        callers = table[func][4] if func in table else {}
        edges = [(caller, edge[column]) for caller, edge in callers.items()]
        norm = sum(w for _, w in edges)
        if norm <= 0:
            norm, edges = len(edges), [(c, 1.0) for c, _ in edges]
        out: dict = {}
        if not edges:
            out[HARNESS] = 1.0
        for caller, w in edges:
            layer = layer_map.layer(caller[0])
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + w / norm
            elif caller in visiting:
                out[HARNESS] = out.get(HARNESS, 0.0) + w / norm
            else:
                sub = split(caller, 3, visiting | {caller})
                for lay, share in sub.items():
                    out[lay] = out.get(lay, 0.0) + share * w / norm
        weights[key] = out
        return out

    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        layer = layer_map.layer(func[0])
        if layer is not None:
            totals[layer] += tottime
        elif tottime > 0:
            for lay, share in split(func, 2, frozenset({func})).items():
                totals[lay] += tottime * share
    return totals
