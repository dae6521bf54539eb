"""In-memory span tracer that wraps dimasr's public functions from outside.

The benchmark never edits the program: while a traced round runs, the
functions named in TARGETS are replaced by timing wrappers and restored
afterwards. Each span records its name, start, end, parent span and run id
(the round number) in flat arrays; self time (duration minus the time covered
by child spans) is accumulated as spans close. Spans are written out only when
the run ends.

A target that no longer exists is recorded as absent and skipped, so a change
that deletes or renames a function does not break the benchmark; its metrics
then read 0 and the name is listed in the run's trace report.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _adamw_bytes(tr, args, kwargs, result, start, end):
    # computed, not measured: reads p, g, m, v and writes p, m, v once each
    tr.counters["kernels.adamw_bytes"] += 7 * args[0].nbytes


def _encode_instances(tr, args, kwargs, result, start, end):
    tr.counters["model.encode_fwd_instances"] += len(args[1])


def _eval_instances(tr, args, kwargs, result, start, end):
    tr.counters["trainer.eval_instances"] += len(args[1])


def _clip(tr, args, kwargs, result, start, end):
    tr.counters["trainer.clip_calls"] += 1
    tr.counters["trainer.clipped"] += result > args[1]


def _step_start(tr, args, kwargs, result, start, end):
    tr.step_start = start


def _step_end(tr, args, kwargs, result, start, end):
    if tr.step_start is not None:
        tr.step_ms.append((end - tr.step_start) * 1000.0)
        tr.step_start = None


def _llm_run(tr, args, kwargs, result, start, end):
    _, log = result
    tr.counters["llm.instances"] += len(args[0])
    tr.counters["llm.fallbacks"] += sum(1 for r in log if r["status"] != "ok")


def _manifest_bytes(tr, args, kwargs, result, start, end):
    outputs = args[4] if len(args) > 4 else kwargs["outputs"]
    tr.counters["cli.manifest_bytes_hashed"] += sum(
        Path(p).stat().st_size for p in outputs if Path(p).is_file())


# (module:qualified name, span name, hook called after the wrapped call returns)
TARGETS = (
    ("dimasr.data:parse_dataset", "data.parse_dataset", None),
    ("dimasr.data:read_instances", "data.read_instances", None),
    ("dimasr.data:write_instances", "data.write_instances", None),
    ("dimasr.data:read_predictions", "data.read_predictions", None),
    ("dimasr.data:write_predictions", "data.write_predictions", None),
    ("dimasr.data:split_dev_protocol", "data.split", None),
    ("dimasr.model:build_input", "model.build_input", None),
    ("dimasr.model:TinyEncoder.encode_batch", "model.encode_fwd", _encode_instances),
    ("dimasr.model:TinyEncoder.backward", "model.encode_bwd", None),
    # heads are timed at the class, because with dropout the backward pass
    # does not go through kernels.head_backward
    ("dimasr.model:RegressionHead.forward", "model.head_fwd", None),
    ("dimasr.model:RegressionHead.backward", "model.head_bwd", None),
    ("dimasr.model:DimASRModel.loss_and_grads", "model.loss_and_grads", _step_start),
    ("dimasr.model:DimASRModel.predict_pairs", "model.predict", None),
    ("dimasr.model:save_checkpoint", "model.save_checkpoint", None),
    ("dimasr.model:load_checkpoint", "model.load_checkpoint", None),
    ("dimasr.kernels:adamw_update", "kernels.adamw_update", _adamw_bytes),
    ("dimasr.kernels:head_forward", "kernels.head_forward", None),
    ("dimasr.kernels:head_backward", "kernels.head_backward", None),
    ("dimasr.kernels:global_grad_norm", "kernels.global_grad_norm", None),
    ("dimasr.kernels:sigmoid", "kernels.sigmoid", None),
    ("dimasr.trainer:fit", "trainer.fit", None),
    ("dimasr.trainer:AdamW.step", "trainer.adamw", _step_end),
    ("dimasr.kernels:clip_gradients", "trainer.clip", _clip),
    ("dimasr.trainer:evaluate_rmse", "trainer.eval", _eval_instances),
    ("dimasr.metrics:score_files", "metrics.score_files", None),
    ("dimasr.metrics:paired_from_files", "metrics.paired_from_files", None),
    ("dimasr.metrics:va_heatmap", "metrics.va_heatmap", None),
    ("dimasr.llm:ReplayTransport.__init__", "llm.replay_load", None),
    ("dimasr.llm:build_prompt", "llm.build_prompt", None),
    ("dimasr.llm:ReplayTransport.complete", "llm.transport", None),
    ("dimasr.llm:parse_llm_output", "llm.parse", None),
    ("dimasr.llm:run_baseline", "llm.run_baseline", _llm_run),
    ("dimasr.cli:write_manifest", "cli.write_manifest", _manifest_bytes),
)


class Tracer:
    """Collects spans and counters for the rounds run while it is installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.run_col = array("i")
        self.run_id = 0
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.stage_self = defaultdict(float)  # (stage span, layer) -> self seconds
        self._stage = None
        self.step_ms = []
        self.step_start = None
        self.absent = []
        self._stack = []  # [span index, summed child duration]
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id, now):
        idx = len(self.name_col)
        if not self._stack:
            self._stage = self.names[name_id]
        self.name_col.append(name_id)
        self.start_col.append(now)
        self.end_col.append(0.0)
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.run_col.append(self.run_id)
        self._stack.append([idx, 0.0])
        return idx

    def _exit(self, now):
        idx, child = self._stack.pop()
        self.end_col[idx] = now
        dur = now - self.start_col[idx]
        name = self.names[self.name_col[idx]]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.stage_self[self._stage, name.split(".", 1)[0]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one per pipeline stage)."""
        self._enter(self._name_id(name), time.perf_counter())
        try:
            yield
        finally:
            self._exit(time.perf_counter())

    def _wrap(self, fn, name, hook):
        name_id = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            self._enter(name_id, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._exit(end)
            if hook is not None:
                hook(self, args, kwargs, result, start, end)
            return result

        return traced

    def install(self):
        """Replace every present target by its timing wrapper."""
        self.absent = []
        for target, name, hook in TARGETS:
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapped = self._wrap(original, name, hook)
            self._patch(owner, attr, wrapped)
            if not path:
                # rebind names other dimasr modules imported with `from x import y`
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("dimasr") and mod is not owner \
                            and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, run_id):
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_self_seconds(self):
        """Self time summed per layer (the span-name prefix before the first dot)."""
        layers = defaultdict(float)
        for (_, layer), value in self.stage_self.items():
            layers[layer] += value
        return layers

    def dump(self, path):
        """Write every span as one JSON line (gzip), after the run ends."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.name_col)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name_col[i]],
                    "start": self.start_col[i], "end": self.end_col[i],
                    "parent": self.parent_col[i], "run": self.run_col[i],
                }) + "\n")
