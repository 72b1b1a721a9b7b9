"""Spans around fibra's public calls, recorded from outside the package.

``Tracer.install`` replaces each listed function or method, in every fibra
module that refers to it, with a wrapper that times the call and charges its
duration to the enclosing call.  A layer's self time is its calls' durations
minus the time of the traced calls they made.  Per-node functions (called
hundreds of thousands of times per command) are counted and timed in
aggregate only; every other call is kept as a span record in memory and
written out as JSONL at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, per-node) for every public call the trace covers.
TARGETS = [
    ("graphs", "Graph.in_edges", True),
    ("graphs", "check_network_map", False),
    ("graphs", "phase_space_map", False),
    ("graphs", "coordinate_distance", True),
    ("graphs", "total_phase_space", True),
    ("graphs", "validate_network", False),
    ("input_trees", "symmetry_groupoid", False),
    ("input_trees", "input_tree", True),
    ("input_trees", "induced_tree_map", True),
    ("input_trees", "aut_order", True),
    ("input_trees", "enumerate_tree_isos", False),
    ("fibrations", "check_fibration", False),
    ("fibrations", "coarsest_balanced", False),
    ("fibrations", "quotient_of", False),
    ("fibrations", "is_balanced", False),
    ("fibrations", "polydiagonal_of", False),
    ("fibrations", "essential_image", False),
    ("fibrations", "Polydiagonal.violation", True),
    ("expr_dsl", "parse_control", False),
    ("expr_dsl", "evaluate", True),
    ("dynamics", "signature_at", True),
    ("dynamics", "per_class_field", False),
    ("dynamics", "pullback", False),
    ("dynamics", "interconnect", False),
    ("dynamics", "eval_control", True),
    ("dynamics", "ctrl_transport", True),
    ("dynamics", "GlobalField.__call__", True),
    ("numerics", "integrate", False),
    ("numerics", "verify_conjugacy_pointwise", False),
    ("numerics", "verify_conjugacy_flow", False),
    ("numerics", "verify_polydiagonal_invariance", False),
    ("numerics", "verify_driving_decomposition", False),
    ("sampling", "sample_state", True),
    ("jsonio", "read_json", False),
    ("jsonio", "network_from_json", False),
    ("jsonio", "map_from_json", False),
    ("jsonio", "class_dynamics_from_json", False),
    ("jsonio", "state_from_json", False),
    ("jsonio", "network_to_json", False),
    ("jsonio", "map_to_json", False),
    ("jsonio", "partition_to_json", False),
    ("jsonio", "node_dynamics_to_json", False),
    ("cli", "main", False),
]
LAYERS = ("graphs", "input_trees", "fibrations", "expr_dsl", "dynamics", "numerics", "sampling", "jsonio", "cli")


# Work counted at a boundary, for per-unit times and exact counts.
WEIGHTS = {
    "dynamics.GlobalField.__call__": lambda args, out: {"nodes": len(args[0].index.order)},
    "numerics.integrate": lambda args, out: {"steps": len(out.times) - 1},
    "fibrations.coarsest_balanced": lambda args, out: {
        "blocks": len(out[0].blocks),
        "quotient_edges": len(out[1].graph.edges),
    },
}


class Stats:
    """Per-name call count, total and self seconds, and counted work."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(lambda: defaultdict(float))

    def as_json(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
                **dict(self.work[name]),
            }
            for name in sorted(self.calls)
        }


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = Stats()
        self.command = None
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_id = 0

    def _wrap(self, name: str, fn, per_node: bool):
        perf = time.perf_counter
        stack = self._stack
        stats = self.stats
        weigh = WEIGHTS.get(name)

        def traced(*args, **kwargs):
            frame = [0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats.calls[name] += 1
                stats.total[name] += dur
                stats.self_time[name] += dur - frame[0]
                if not per_node:
                    self.spans.append((frame[1], name, t0, t1, parent, self.command))
            if weigh is not None:
                for key, value in weigh(args, out).items():
                    stats.work[name][key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        undo = []
        try:
            for module, path, per_node in TARGETS:
                mod = importlib.import_module(f"fibra.{module}")
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(f"{module}.{path}", original, per_node))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(f"{module}.{path}", original, per_node)
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if (name == "fibra" or name.startswith("fibra.")) and getattr(other, attr, None) is original:
                        setattr(other, attr, wrapper)
                        undo.append((other, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.stats.self_time.items():
            out[name.split(".", 1)[0]] += secs
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, name, t0, t1, parent, command in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "command": command}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"stats": self.stats.as_json(), "layer_self_s": self.layer_self()}) + "\n")
