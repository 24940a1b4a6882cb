"""Layer spans recorded from outside the program.

The tracer wraps public functions in the module namespace where their
caller looks them up (the patch point), so ``src/`` stays untouched.
Spans are kept in memory (span id, layer, start, end, parent span,
request id) and written out as CSV when the run ends. A span's self time
is its duration minus the time its child spans cover.

Wrapped code that runs in forked sweep workers would record into the
worker's copy of the tracer, which is not collected; the benchmark traces
the serial sweep, where the same code runs in-process.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
from pathlib import Path
from time import perf_counter

# (module, attribute, layer name). A patch point that a later version of
# the program no longer has is skipped and listed as missing.
PATCH_POINTS = (
    ("smartrar.cli", "main", "cli.main"),
    ("smartrar.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("smartrar.cli", "run_sweep", "sweep.run_sweep"),
    ("smartrar.cli", "write_sweep_csvs", "cli.write_sweep_csvs"),
    ("smartrar.cli", "write_manifest", "cli.write_manifest"),
    ("smartrar.cli", "run_trial", "simulator.run_trial"),
    ("smartrar.sweep", "run_trial", "simulator.run_trial"),
    ("smartrar.sweep", "trial_seed", "sweep.trial_seed"),
    ("smartrar.simulator", "posterior_conjugate_cells", "inference.posterior_conjugate_cells"),
    ("smartrar.simulator", "posterior_mcmc", "inference.posterior_mcmc"),
    ("smartrar.inference", "split_chain_rhat", "inference.split_chain_rhat"),
    ("smartrar.simulator", "q_stage2", "policy.q_stage2"),
    ("smartrar.simulator", "q_stage1", "policy.q_stage1"),
    ("smartrar.simulator", "allocation_probs", "allocation.allocation_probs"),
)


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Wrappers for every patch point, and the spans and totals they record."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.request = 0
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.missing: list[str] = []
        self.draw_pairs = self.draw_moves = self.rhat_warnings = 0
        self.sweep_wall_s = self.sweep_busy_cpu_s = self.sweep_worker_s = 0.0
        self._next_span = 0
        self._stack: list[list] = []  # [span index, child seconds] of open spans
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- patching -------------------------------------------------------

    def _build_wrappers(self) -> list[tuple[object, str, object]]:
        hooks = {"inference.posterior_mcmc": self._mcmc_hook}
        out = []
        for module_name, attr, layer in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if layer not in self.layers:
                self.layers.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
            wrapper = self._wrap(self.layers.index(layer), fn, hooks.get(layer))
            if layer == "sweep.run_sweep":
                wrapper = self._wrap_sweep(wrapper)
            out.append((module, attr, wrapper))
        return out

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer_id: int, fn, hook):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_span, 0.0]
            self._next_span += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    (frame[0], layer_id, start, end, parent[0] if parent else -1, self.request)
                )
                calls[layer_id] += 1
                self_s[layer_id] += duration - frame[1]
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _wrap_sweep(self, wrapper):
        """Wall time of ``run_sweep`` and the CPU its workers spent.

        Workers are the pool's children when it has more than one worker,
        otherwise the calling process itself."""

        @functools.wraps(wrapper)
        def sweep_wrapper(config, *args, **kwargs):
            workers = getattr(config, "parallelism", None) or len(os.sched_getaffinity(0))
            who = resource.RUSAGE_CHILDREN if workers > 1 else resource.RUSAGE_SELF
            cpu0, t0 = _cpu_seconds(who), perf_counter()
            result = wrapper(config, *args, **kwargs)
            wall = perf_counter() - t0
            self.sweep_wall_s += wall
            self.sweep_busy_cpu_s += _cpu_seconds(who) - cpu0
            self.sweep_worker_s += workers * wall
            return result

        return sweep_wrapper

    def _mcmc_hook(self, result) -> None:
        """Acceptance from distinct consecutive draws; R-hat warning count."""
        import numpy as np

        self.rhat_warnings += len(getattr(result, "warnings", ()))
        cells = getattr(result, "cells", None)
        if not cells:
            return
        draws = np.asarray(next(iter(cells.values())).draws)
        self.draw_pairs += draws.size - 1
        self.draw_moves += int(np.count_nonzero(draws[1:] != draws[:-1]))

    # -- results --------------------------------------------------------

    def metrics(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``trials`` traced trials."""
        out: dict[str, tuple[float, str]] = {}

        def totals(layer: str) -> tuple[int, float]:
            if layer not in self.layers:
                return 0, 0.0
            i = self.layers.index(layer)
            return self.calls[i], self.self_s[i]

        def per_call(layer: str, scale: float, unit: str, with_calls: bool = True) -> None:
            calls, self_s = totals(layer)
            if with_calls:
                out[f"{layer}.calls"] = (calls / trials, "calls/trial")
            out[f"{layer}.self_{unit}_per_call"] = (self_s / calls * scale if calls else 0.0, unit)

        for layer in (
            "sweep.trial_seed",
            "simulator.run_trial",
            "inference.posterior_conjugate_cells",
            "policy.q_stage2",
            "policy.q_stage1",
            "allocation.allocation_probs",
        ):
            per_call(layer, 1e6, "us")
        per_call("inference.posterior_mcmc", 1e3, "ms")
        per_call("inference.split_chain_rhat", 1e6, "us")
        out["inference.mcmc.accept_frac"] = (
            self.draw_moves / self.draw_pairs if self.draw_pairs else 0.0,
            "fraction",
        )
        out["inference.mcmc.rhat_warnings"] = (float(self.rhat_warnings), "count")
        per_call("cli.cmd_simulate", 1e3, "ms", with_calls=False)
        per_call("cli.main", 1e3, "ms", with_calls=False)
        sweeps = totals("sweep.run_sweep")[0]
        for layer in ("cli.write_sweep_csvs", "cli.write_manifest"):
            calls, self_s = totals(layer)
            out[f"{layer}.self_s"] = (self_s / calls if calls else 0.0, "s")
        out["sweep.run_sweep.wall_s"] = (self.sweep_wall_s / sweeps if sweeps else 0.0, "s")
        out["sweep.worker_busy_frac"] = (
            self.sweep_busy_cpu_s / self.sweep_worker_s if self.sweep_worker_s else 0.0,
            "fraction",
        )
        return out

    def write(self, path: Path) -> None:
        """Write every span as a CSV row; times are perf_counter seconds."""
        with path.open("w") as f:
            f.write("span,layer,start,end,parent,request\n")
            f.writelines(
                f"{i},{self.layers[layer]},{start!r},{end!r},{parent},{request}\n"
                for i, layer, start, end, parent, request in sorted(self.spans)
            )
