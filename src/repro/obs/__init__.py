"""``repro.obs`` — tracing, metrics and progress for the execution stack.

The observability layer of the reproduction: span tracing with per-worker
spool files (:mod:`repro.obs.tracer`), parent-side merge into checksummed
``trace.json`` artifacts (:mod:`repro.obs.merge`), report rendering and
Chrome-trace export (:mod:`repro.obs.report`) and strict progress
reporting (:mod:`repro.obs.progress`).

This package re-exports only the hot-path hooks instrumented code needs
(``span``/``event``/``add``/``tracing``, and the determinism digests'
``digest_task``/``record_seed_material``); merge, diff and report tooling
is imported explicitly by the CLI so engine modules importing ``repro.obs``
stay light.
"""

from __future__ import annotations

from repro.obs.tracer import (
    TRACE_ENV_VAR,
    Tracer,
    add,
    digest_task,
    enabled,
    event,
    next_dispatch_id,
    record_seed_material,
    span,
    trace_dir,
    tracing,
)

__all__ = [
    "TRACE_ENV_VAR",
    "Tracer",
    "add",
    "digest_task",
    "enabled",
    "event",
    "next_dispatch_id",
    "record_seed_material",
    "span",
    "trace_dir",
    "tracing",
]
