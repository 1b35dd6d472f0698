"""Outside-in layer ledger: times the public calls of each ``src/repro`` layer.

The benchmark never edits ``src/``.  For a traced rep, ``launch.py`` imports
the program, then :meth:`Ledger.install` replaces the public functions and
methods listed in :data:`HOOKS` with timing wrappers (module-level functions
are re-bound in every ``repro`` module that imported them by name).

Each wrapped call's *self* time is its duration minus the time spent in
wrapped calls nested inside it, so the self times of all layers, plus the
time outside any wrapped call, tile the process's wall time exactly.  Work
counters (packets, frames, trellis steps, KDE evaluations, bytes written)
are computed from argument and result shapes, never from the program's own
instrumentation.

``scoped`` holds the times of the same call sites the program's
``engine.*`` spans cover, so the two instruments can be cross-checked on one
rep (see ``run.py``).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["HOOKS", "Ledger", "rebind"]

CPRECYCLE_DEMOD = "CPRecycleReceiver.demodulate_batch"


def rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute that is ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        names = [name for name, value in vars(module).items() if value is original]
        for name in names:
            setattr(module, name, replacement)


def _file_bytes(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# --------------------------------------------------------------------------- #
# Work counters: (ledger, parent tag, seconds, args, result) -> None          #
# --------------------------------------------------------------------------- #
def _realize(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["channel.packets"] += len(result)
    if parent == "packet_success_rate":
        led.scoped["engine.realize"] += elapsed


def _frontend(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["receiver.frontend_packets"] += len(result)
    if parent == CPRECYCLE_DEMOD:
        led.scoped["engine.frontend"] += elapsed


def _cprecycle_demod(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["core.cprecycle_packets"] += len(result)


def _kde_ml(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    if parent == CPRECYCLE_DEMOD:
        led.scoped["engine.kde_ml"] += elapsed


def _decode_frame(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["core.kde_ml_calls"] += 1
    _kde_ml(led, parent, elapsed, args, result)


def _kde_evals(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    # candidate_log_likelihood(self, observations (n_data, P, S), points (n_data, S, k))
    n_data, n_segments, n_symbols = args[1].shape
    led.counts["core.kde_evals"] += n_data * n_segments * n_symbols * args[2].shape[-1]


def _viterbi(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    # decode_batch(self, coded (batch, 2n)) / decode_soft_batch(self, llrs (batch, 2n))
    frames, coded_len = args[1].shape
    led.counts["phy.viterbi_calls"] += 1
    led.counts["phy.viterbi_frames"] += frames
    led.counts["phy.viterbi_trellis_steps"] += frames * (coded_len // 2)
    led.scoped["engine.viterbi"] += elapsed


def _links(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["network.links"] += sum(sim.n_links for sim in result)
    if result:
        led.counts["network.unique_points"] += result[0].n_simulated_points


def _write_self_path(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["store.writes"] += 1
    led.counts["store.bytes_written"] += _file_bytes(args[0].path)


def _write_result_path(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["store.writes"] += 1
    led.counts["store.bytes_written"] += _file_bytes(result)


def _write_artifact(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    if led.layer_of_write(args) == "trace":
        led.counts["trace.spool_writes"] += 1
    else:
        _write_result_path(led, parent, elapsed, args, result)


def _read(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["store.reads"] += 1


def _cache_lookup(led: "Ledger", parent: str | None, elapsed: float, args: tuple, result: Any) -> None:
    led.counts["store.cache_hits" if result else "store.cache_misses"] += 1


#: (module, class or None, attribute, layer, counter).  A layer of ``None``
#: marks a count-only hook (too fine-grained to time without distorting it).
HOOKS: tuple[tuple[str, str | None, str, str | None, Callable[..., None] | None], ...] = (
    ("repro.channel.scenario", "Scenario", "realize_batch", "channel.realize", _realize),
    ("repro.receiver.frontend", "FrontEnd", "process_batch", "receiver.frontend", _frontend),
    ("repro.receiver.base", "OfdmReceiverBase", "demodulate_batch", "receiver.demod", None),
    ("repro.core.receiver", "CPRecycleReceiver", "demodulate_batch", "receiver.demod", _cprecycle_demod),
    ("repro.core.interference_model", "InterferenceModel", "__init__", "core.kde_ml", _kde_ml),
    (
        "repro.core.interference_model",
        "InterferenceModel",
        "deviations_from_front_end",
        "core.kde_ml",
        _kde_ml,
    ),
    ("repro.core.interference_model", "InterferenceModel", "candidate_log_likelihood", None, _kde_evals),
    ("repro.core.ml_decoder", "FixedSphereMlDecoder", "decode_frame", "core.kde_ml", _decode_frame),
    ("repro.phy.viterbi", "ViterbiDecoder", "decode_batch", "phy.viterbi", _viterbi),
    ("repro.phy.viterbi", "ViterbiDecoder", "decode_soft_batch", "phy.viterbi", _viterbi),
    ("repro.receiver.decode_chain", None, "decode_coded_bits_batch", "phy.fec", None),
    ("repro.experiments.link", None, "packet_success_rate", "link", None),
    ("repro.api.specs", "ScenarioSpec", "build", "api.build", None),
    ("repro.api.registry", None, "build_receiver", "api.build", None),
    ("repro.experiments.sweeps", None, "execute_points", "sweeps", None),
    ("repro.experiments.parallel", None, "parallel_map_chunked", "parallel", None),
    ("repro.experiments.store", "PointCache", "__init__", "store.read", _read),
    ("repro.experiments.store", "PointCache", "__contains__", None, _cache_lookup),
    ("repro.experiments.store", "PointCache", "update", "store.write", None),
    ("repro.experiments.store", "PointCache", "flush", "store.write", _write_self_path),
    ("repro.experiments.store", "ResultStore", "save", "store.write", _write_result_path),
    ("repro.experiments.store", "ResultStore", "load_record", "store.read", _read),
    ("repro.experiments.store", None, "write_json_artifact", "store.write", _write_artifact),
    ("repro.experiments.store", "CampaignManifest", "__init__", "store.read", _read),
    ("repro.experiments.store", "CampaignManifest", "flush", "store.write", _write_self_path),
    ("repro.campaigns.scheduler", None, "run_campaign", "campaigns", None),
    ("repro.network.building", "Deployment", "pairwise_rss_dbm", "network.rss", None),
    ("repro.network.links", None, "simulate_link_matrices", "network.links", _links),
    ("repro.network.links", None, "psr_conflict_graph", "network.graph", None),
    ("repro.network.links", None, "channel_capacity_estimate", "network.graph", None),
)


class Ledger:
    """Exclusive-time accounting of the wrapped calls of one process."""

    def __init__(self, trace_dir: str | None = None) -> None:
        self.trace_dir = os.path.abspath(trace_dir) if trace_dir else None
        # One [child seconds, tag] frame per open wrapped call.
        self._stack: list[list[Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.scoped: dict[str, float] = defaultdict(float)
        #: Seconds inside outermost wrapped calls; equals the sum of all self
        #: times when the accounting has neither gaps nor double counts.
        self.top_s = 0.0

    def layer_of_write(self, args: tuple) -> str:
        """``trace`` for the program's own trace spools, else ``store.write``."""
        path = os.path.abspath(str(args[0])) if args else ""
        if self.trace_dir and path.startswith(self.trace_dir + os.sep):
            return "trace"
        return "store.write"

    def timed(self, layer: str, tag: str, fn: Callable[..., Any], count: Callable[..., None] | None) -> Callable[..., Any]:
        stack = self._stack
        perf = time.perf_counter
        # The program's own trace spools go through write_json_artifact too;
        # they are tracing cost, not store work.
        dynamic = tag == "write_json_artifact"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else None
            frame = [0.0, tag]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
                key = self.layer_of_write(args) if dynamic else layer
                self.self_s[key] += elapsed - frame[0]
                self.calls[key] += 1
            if count is not None:
                count(self, parent, elapsed, args, result)
            return result

        return wrapper

    def counted(self, fn: Callable[..., Any], count: Callable[..., None]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            count(self, None, 0.0, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook of :data:`HOOKS` in this process."""
        import inspect  # only traced reps pay for this import

        for module_name, class_name, attr, layer, count in HOOKS:
            module = importlib.import_module(module_name)
            tag = f"{class_name}.{attr}" if class_name else attr
            owner = getattr(module, class_name) if class_name else module
            static = inspect.getattr_static(owner, attr)
            is_static = isinstance(static, staticmethod)
            original = static.__func__ if is_static else getattr(owner, attr)
            if layer is None:
                assert count is not None
                wrapped = self.counted(original, count)
            else:
                wrapped = self.timed(layer, tag, original, count)
            if class_name is None:
                rebind(original, wrapped)
            else:
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "scoped": dict(self.scoped),
            "top_s": self.top_s,
        }
