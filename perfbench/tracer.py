"""Run one `gridshock` CLI command with every layer's functions traced.

    python3 perfbench/tracer.py SPANS_JSON <gridshock arguments...>

Nothing under `src/` changes: the wrappers are installed from here, at the
names the calling module binds (`gridshock.train.kernel_matrix_with_grad`,
not `gridshock.model.kernel_matrix_with_grad`), before `gridshock.cli.main`
runs. Each wrapped call records a span (name, start, end, parent span);
spans and counters stay in memory and are written to SPANS_JSON when the
command ends. The root span `cli.<command>` covers the whole command, so
the self times of all spans add up to the root's duration; each
`gridshock.*` module import is a `cli.import` span, numpy and scipy imports
included.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.monotonic() if start is None else start, None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def span(self, fn, name, after=None):
        """Wrap `fn` in a span; `name` may be a function of the call's args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, fn, after):
        """Wrap `fn` without a span: only `after(result, *args)` runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            return after(result, *args, **kwargs)

        return wrapper


def _mlp_matmul_flops(mlp, n: int) -> int:
    return sum(2 * n * w.shape[0] * w.shape[1] for w in mlp.weights)


class PatchOnImport(importlib.abc.MetaPathFinder):
    """Trace each `gridshock.*` module import and patch the module right after it runs.

    Patching at import time keeps the traced process importing exactly what
    the untraced command imports. A binding copied from an already patched
    module (`from .model import mlp_forward`) is left as it is, so no
    function is wrapped twice.
    """

    def __init__(self, tr: Tracer, patches: dict):
        self.tr = tr
        self.patches = patches  # module name -> [(attribute, make wrapper)]

    def find_spec(self, name, path=None, target=None):
        if not name.startswith("gridshock."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            idx = self.tr.open("cli.import")
            try:
                exec_module(module)
            finally:
                self.tr.close(idx)
            for attr, make in self.patches.get(name, []):
                fn = getattr(module, attr)
                if not getattr(fn, "traced", False):
                    wrapper = make(fn)
                    wrapper.traced = True
                    setattr(module, attr, wrapper)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(tr: Tracer) -> None:
    """Arrange for every traced function to be patched at the names its callers bind."""
    patches: dict[str, list] = {}

    def patch(module: str, attr: str, make):
        patches.setdefault(f"gridshock.{module}", []).append((attr, make))

    def spans(label, *bindings, after=None):
        for module, attr in bindings:
            patch(module, attr, lambda fn: tr.span(fn, label, after))

    # -- topology / train: projection ---------------------------------------
    spans("topology.enforce_no_loops", ("train", "enforce_no_loops"), ("simulate", "enforce_no_loops"),
          after=lambda r, *a, **k: tr.count("topology.enforce_no_loops.calls"))
    spans("train.project", ("train", "project"))

    # -- estimation: weather accumulation, MLP, kernel, coupling loops, Adam ---
    def block_label(params, counts, x_scaled, t0, t1):
        return "train.full_pass" if t0 == 0 and t1 == counts.shape[1] else "train.block_step"

    spans(block_label, ("train", "_block_loglik_and_grads"))
    spans("train.update", ("train", "_apply_update"))
    spans("weather_effect.accumulate_with_grad", ("train", "accumulate_with_grad"))
    spans("model.kernel_matrix_with_grad", ("train", "kernel_matrix_with_grad"))

    def forward_flops(result, mlp, v, *a, **k):
        tr.count("model.mlp_flops", _mlp_matmul_flops(mlp, 1 if v.ndim == 1 else v.shape[0]))

    def backward_flops(result, mlp, cache, dmu, *a, **k):
        # grad_w and the upstream gradient: two matmuls per layer.
        tr.count("model.mlp_flops", 2 * _mlp_matmul_flops(mlp, len(dmu)))

    spans("model.mlp_forward", ("train", "mlp_forward"), ("model", "mlp_forward"), ("simulate", "mlp_forward"),
          ("analyze", "mlp_forward"), after=forward_flops)
    spans("model.mlp_backward", ("train", "mlp_backward"), after=backward_flops)

    # -- forward-only intensity -------------------------------------------------
    spans("weather_effect.accumulate", ("model", "accumulate"), ("simulate", "accumulate"), ("analyze", "accumulate"),
          after=lambda r, *a, **k: tr.count("weather_effect.accumulate.calls"))
    spans("model.kernel_matrix", ("model", "kernel_matrix"), ("simulate", "kernel_matrix"))
    spans("model.indirect_field", ("model", "indirect_field"))
    spans("model.intensity_field", ("analyze", "intensity_field"))

    # -- simulation ---------------------------------------------------------------
    def rollout_done(result, params, weather, grid, R, seed, *a, **k):
        tr.count("simulate.rollouts")
        tr.count("simulate.slot_steps", R * grid.num_slots)

    spans("simulate.simulate_paths", ("simulate", "simulate_paths"), after=rollout_done)
    spans("simulate.apply_scenario", ("simulate", "apply_scenario"))

    # -- ingest / container -------------------------------------------------------
    for attr in ("aggregate_outages", "aggregate_weather", "save_dataset", "load_dataset"):
        spans(f"ingest.{attr}", ("ingest", attr))

    def counting_rows(rows):
        for row in rows:
            tr.count("ingest.rows_parsed")
            yield row

    patch("ingest", "load_outage_rows", lambda fn: tr.counted(fn, lambda rows, *a, **k: counting_rows(rows)))
    patch("ingest", "load_weather_rows", lambda fn: tr.counted(fn, lambda r, *a, **k: (r[0], counting_rows(r[1]))))

    def bytes_read(result, path, *a, **k):
        tr.count("container.bytes_read", os.path.getsize(path))
        return result

    def bytes_written(result, path, *a, **k):
        tr.count("container.bytes_written", os.path.getsize(path))
        return result

    for module in ("ingest", "model"):
        patch(module, "read_container", lambda fn: tr.counted(fn, bytes_read))
        patch(module, "write_container", lambda fn: tr.counted(fn, bytes_written))

    # -- analyze --------------------------------------------------------------------
    for attr in ("predict_ahead", "predict_in_sample", "decompose", "fit_sigmoid"):
        spans(f"analyze.{attr}", ("analyze", attr))
    spans("analyze.lambda_at", ("analyze", "_lambda_at"), after=lambda r, *a, **k: tr.count("analyze.lambda_at.calls"))

    def rows_written(result, path, report, *a, **k):
        import numpy as np

        tr.count("analyze.predictions_rows", int((~np.isnan(report.predicted)).sum()))

    spans("analyze.write_predictions_csv", ("analyze", "write_predictions_csv"), after=rows_written)
    sys.meta_path.insert(0, PatchOnImport(tr, patches))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tr = Tracer()
    root = tr.open("cli." + cli_args[0].replace("-", "_"), start=PROCESS_START)
    install(tr)
    from gridshock.cli import main as cli_main

    try:
        rc = cli_main(cli_args)
    finally:
        tr.close(root)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.spans, "counters": tr.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
