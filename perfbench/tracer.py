"""Per-layer self-time tracer, installed from outside the program.

The layer map (``layers.json``) names each layer's public entry points
as ``module:attribute`` at the place where callers look them up.
:meth:`LayerTracer.install` replaces each with a timer that records
the call count and the layer's *self* time: its wall time net of the
wrapped calls nested inside it.  Nothing under ``src/`` is edited.

The wrappers are process-global, so install them only in a fresh
interpreter that runs no process pool: pool workers forked after the
install would inherit them, and their time could not reach this
process anyway.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, Dict, List

LAYER_MAP_PATH = Path(__file__).with_name("layers.json")


def load_layer_map() -> Dict[str, Any]:
    """The parsed ``layers.json``."""
    return json.loads(LAYER_MAP_PATH.read_text(encoding="utf-8"))


def self_metric(layer: Dict[str, Any]) -> str:
    """Name of the metric that carries a layer's self time."""
    return layer.get("self", f"{layer['layer']}.self_s")


def measure_count(value: Any, path: str) -> int:
    """Work count read from an entry point's return value.

    *path* is a dotted chain of attributes (or mapping keys); a
    ``len:`` prefix takes the length of what the chain reaches.
    """
    take_len = path.startswith("len:")
    for part in path[4:].split(".") if take_len else path.split("."):
        value = value[part] if isinstance(value, Mapping) else getattr(value, part)
    return len(value) if take_len else int(value)


class LayerTracer:
    """Self time, call and work counts per layer of the layer map."""

    def __init__(self, layer_map: Dict[str, Any]) -> None:
        self.layers = [layer for layer in layer_map["layers"] if layer["wraps"]]
        self.self_s = {layer["layer"]: 0.0 for layer in self.layers}
        self.calls = {layer["layer"]: 0 for layer in self.layers}
        self.counts = {
            metric: 0 for layer in self.layers for metric in layer["counts"]
        }
        # One slot per active wrapped call: the wall time of the wrapped
        # calls nested directly inside it.
        self._nested: List[float] = []

    def install(self) -> None:
        """Replace every entry point of the map with a timed wrapper."""
        for layer in self.layers:
            for target in layer["wraps"]:
                module_name, attr_path = target.split(":")
                owner: Any = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))

    def _wrap(self, layer: Dict[str, Any], entry: Callable) -> Callable:
        name = layer["layer"]
        counts = layer["counts"]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            self._nested.append(0.0)
            try:
                result = entry(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._nested.pop()
                self.calls[name] += 1
                if self._nested:
                    self._nested[-1] += elapsed
            for metric, path in counts.items():
                self.counts[metric] += measure_count(result, path)
            return result

        # A class entry point (a constructor) keeps its own __dict__;
        # copying it onto the wrapper would be wrong.
        if not isinstance(entry, type):
            timed = functools.wraps(entry)(timed)
        return timed

    def total_self_s(self) -> float:
        """Sum of self time over the attributed layers."""
        return sum(
            self.self_s[layer["layer"]]
            for layer in self.layers
            if layer.get("attributed", True)
        )

    def metrics(self) -> Dict[str, float]:
        """Self time, call count and work count metrics by name."""
        out: Dict[str, float] = {}
        for layer in self.layers:
            if layer.get("attributed", True):
                out[self_metric(layer)] = self.self_s[layer["layer"]]
            if "calls" in layer:
                out[layer["calls"]] = self.calls[layer["layer"]]
        out.update(self.counts)
        return out
