"""Per-layer spans, installed from outside the program.

Each span target is a name that a tfpsolve module looks up at call time, so
rebinding it in that module puts a timer around every call made through it.
Nothing under ``src/`` is edited.  A target that no longer exists after a
refactor is listed as absent and its layer reads 0; it is never an error.

Every ``_s`` layer is a self time: the span's duration minus the time of
spans nested in it.  The layers plus ``cli.other_s`` therefore add up to the
traced op time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import ModuleType

import numpy as np

# (layer metric, module, name the module looks up)
SPANS = (
    ("core.parse_s", "cli", "parse_tournament"),
    ("core.simulate_s", "cli", "simulate"),
    ("core.simulate_s", "indeg", "champion_of"),
    ("core.simulate_s", "instances", "champion_of"),
    ("core.format_s", "cli", "format_tournament"),
    ("core.format_s", "cli", "format_trace"),
    ("instances.gen_s", "cli", "gen_planted_yes"),
    ("instances.gen_s", "cli", "gen_random"),
    ("indeg.search_self_s", "indeg", "find_wwf"),
    ("indeg.complete_s", "indeg", "complete_wwf"),
    ("embed.batch_dp_s", "indeg", "_decide_colorful_batch"),
    ("embed.witness_dp_s", "indeg", "embed_colorful_tree"),
    ("embed.exact_s", "cli", "solve_exact"),
    ("embed.exact_s", "indeg", "solve_exact"),
    ("embed.exact_s", "outdeg", "solve_exact"),
    ("oracles.is_wwf_s", "oracles", "is_wwf"),
    ("arborescence.seeding_s", "cli", "lba_to_seeding"),
    ("arborescence.seeding_s", "indeg", "lba_to_seeding"),
    ("arborescence.seeding_s", "outdeg", "lba_to_seeding"),
    ("arborescence.seeding_s", "instances", "lba_to_seeding"),
    ("outdeg.solve_s", "cli", "solve_outdeg"),
)
BATCH_TARGET = ("indeg", "_decide_colorful_batch")


class Tracer:
    """Spans and batch-DP counts for the traced ops of one run."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.absent: list[str] = []
        self.spans: list[tuple[int, str, float, float, int]] = []  # op, layer, start, end, parent
        self._open: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []
        self.op = -1
        self.op_time: list[float] = []
        self.draws = 0
        self.hits = 0
        self.batch_calls = 0
        self.batch_bytes = 0
        self.hit_index: list[int] = []
        self._op_draws = 0
        self._op_hit = False

    def install(self) -> None:
        for layer, mod, name in SPANS:
            fn = getattr(self.modules.get(mod), name, None)
            if fn is None:
                if f"{mod}.{name}" not in self.absent:
                    self.absent.append(f"{mod}.{name}")
                continue
            self._saved.append((self.modules[mod], name, fn))
            hook = self._count_batch if (mod, name) == BATCH_TARGET else None
            setattr(self.modules[mod], name, self._wrap(layer, fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def begin_op(self) -> None:
        self.op += 1
        self.op_time.append(0.0)
        self._op_draws = 0
        self._op_hit = False

    def _wrap(self, layer, fn, hook):
        def span(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            idx = len(self.spans)
            self.spans.append((self.op, layer, time.perf_counter(), 0.0, parent))
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                op, _, start, _, _ = self.spans[idx]
                self.spans[idx] = (op, layer, start, time.perf_counter(), parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def _count_batch(self, args, kwargs, result) -> None:
        """Read draws, hits and DP size off ``_decide_colorful_batch(pattern,
        host, d, color_idx, num_colors)``."""
        try:
            host = args[1] if len(args) > 1 else kwargs["host"]
            color_idx = args[3] if len(args) > 3 else kwargs["color_idx"]
            num_colors = args[4] if len(args) > 4 else kwargs["num_colors"]
            b, h = color_idx.shape
            hits = np.asarray(result, bool)
            width = -(-b // 64) * host.n * (1 << num_colors) * 8
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            if "batch counts" not in self.absent:
                self.absent.append("batch counts")
            return
        self.batch_calls += 1
        self.draws += b
        self.hits += int(hits.sum())
        self.batch_bytes = max(self.batch_bytes, width)
        if hits.any() and not self._op_hit:
            self._op_hit = True
            self.hit_index.append(self._op_draws + int(np.argmax(hits)) + 1)
        self._op_draws += b

    def layer_metrics(self) -> dict[str, float]:
        """Per traced op: self time of each layer, and the batch-DP counts."""
        ops = max(1, len(self.op_time))
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        top = 0.0
        for i, (_, layer, start, end, parent) in enumerate(self.spans):
            total[layer] += end - start - child[i]
            if parent < 0:
                top += end - start
        out = {layer: total[layer] / ops for layer, _, _ in SPANS}
        out["indeg.draws"] = self.draws / ops
        out["indeg.hit_index"] = float(np.mean(self.hit_index)) if self.hit_index else 0.0
        out["embed.batch_calls"] = self.batch_calls / ops
        out["embed.batch_hit_rate"] = self.hits / self.draws if self.draws else 0.0
        out["embed.batch_bytes"] = float(self.batch_bytes)
        out["cli.other_s"] = (sum(self.op_time) - top) / ops
        return out
