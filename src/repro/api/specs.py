"""Declarative experiment specifications.

Every scenario the harness can simulate is described by plain data: a
:class:`ScenarioSpec` names the sender (MCS, SNR, payload, allocation), the
propagation channel and an arbitrary *list* of :class:`InterfererSpec`s —
adjacent-channel and co-channel interferers with independent guard bands,
powers, timing offsets and channels, freely mixed.  A :class:`ReceiverSpec`
names a receiver from the plugin registry (:mod:`repro.api.registry`), a
:class:`SweepSpec` declares the grid axes, and an :class:`ExperimentSpec`
ties them together into one runnable, serialisable experiment.

Specs are frozen dataclasses of primitives, so they are picklable (sweep
points travel to pool workers without ``functools.partial`` gymnastics) and
content-hashable (:func:`repro.experiments.store.stable_key` gives the same
digest in every process, which is what keys the persistent point cache and
result artifacts).  One JSON codec (:class:`_SpecCodec`) serves every spec:
``to_dict``/``to_json`` write each field in declaration order and
``from_dict``/``from_json`` restore an equal spec under
``SPEC_SCHEMA_VERSION``.  Validation is eager — a malformed spec fails at
construction with an error naming the offending field, not deep inside a
sweep.

A scenario-level ``sir_db`` is the *total* SIR over all interferers that do
not pin their own ``sir_db``, split equally between them using the paper's
3.0103 dB-per-doubling rule (:meth:`ScenarioSpec.build`, through which
:func:`repro.experiments.config.aci_scenario` and ``cci_scenario`` build as
well); without an explicit allocation, the sender layout is derived from the
ACI interferer set by :func:`repro.experiments.config.aci_sender_allocation`.
"""

from __future__ import annotations

import json
import math
import re
import string
from contextvars import ContextVar
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

if TYPE_CHECKING:  # runtime imports of repro.network would be circular
    from repro.network.building import Deployment
    from repro.network.pathloss import IndoorPathLossModel

from repro.channel.interference import (
    InterfererSpec as RealizableInterferer,
    adjacent_channel_interferer,
    co_channel_interferer,
)
from repro.channel.multipath import (
    ChannelModel,
    ExponentialMultipathChannel,
    FlatChannel,
    StaticTapChannel,
)
from repro.channel.scenario import Scenario
from repro.experiments.config import (
    ACI_EDGE_WINDOW,
    SNR_FOR_MCS,
    aci_sender_allocation,
)
from repro.experiments.sweeps import sir_axis
from repro.phy.mcs import MCS_NAMES
from repro.phy.subcarriers import OfdmAllocation, dot11g_allocation, wideband_allocation

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecError",
    "ChannelSpec",
    "AllocationSpec",
    "InterfererSpec",
    "ScenarioSpec",
    "DeploymentSpec",
    "ReceiverSpec",
    "SweepAxis",
    "SweepSpec",
    "ExperimentSpec",
    "axis_placeholder",
]

#: Version of the serialised spec payload (``ExperimentSpec.to_json``).
SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec failed validation; the message names the offending field."""


def _set(obj: Any, name: str, value: Any) -> None:
    """Assign a coerced field value on a frozen dataclass."""
    object.__setattr__(obj, name, value)


def _from_payload(cls: type[Any], payload: Any, path: str) -> dict[str, Any]:
    """Validate payload keys against ``cls`` fields; reject typos and missing
    required fields eagerly (a SpecError, never a raw TypeError)."""
    if not isinstance(payload, dict):
        # JSON lists arrive as tuples (see _decode_lists).
        kind = "list" if isinstance(payload, tuple) else type(payload).__name__
        raise SpecError(f"{path} must be a JSON object, got {kind}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise SpecError(
            f"unknown field(s) {unknown} in {path}; valid fields: {sorted(names)}"
        )
    required = {
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = sorted(required - set(payload))
    if missing:
        raise SpecError(f"missing required field(s) {missing} in {path}")
    return payload


def _encode(value: Any) -> Any:
    """JSON form of a field value: nested specs as objects, tuples as lists."""
    if isinstance(value, _SpecCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode_lists(value: Any) -> Any:
    """Inverse of :func:`_encode` for lists, at every depth: they read as tuples.

    JSON objects stay dicts; the owning spec's ``__post_init__`` decodes the
    nested specs among them (:func:`_decode_spec`, :func:`_decode_specs`).
    """
    if isinstance(value, list):
        return tuple(_decode_lists(item) for item in value)
    return value


_S = TypeVar("_S", bound="_SpecCodec")

#: The class and payload path :meth:`_SpecCodec.from_dict` is building, so
#: that a nested spec decoded in that class's ``__post_init__`` can be named
#: after it (see :func:`_payload_path`).
_DECODING: ContextVar[tuple[type[Any], str] | None] = ContextVar("_DECODING", default=None)


def _payload_path(spec: _SpecCodec) -> str:
    """The payload path ``spec`` is being decoded under, else its class default.

    An interferer loaded as ``interferers[2]`` names its channel
    ``interferers[2] channel``; one constructed directly says
    ``interferer channel``.
    """
    decoding = _DECODING.get()
    if decoding is not None and decoding[0] is type(spec):
        return decoding[1]
    return spec._path


class _SpecCodec:
    """The JSON codec every spec dataclass of :mod:`repro.api` shares.

    A subclass names the payload path its errors use by default
    (``class ChannelSpec(_SpecCodec, path="channel")``); a top-level spec
    also names the schema version it writes first and reads up to.
    """

    _path: ClassVar[str]
    _schema_version: ClassVar[int | None]

    if TYPE_CHECKING:  # every subclass is a dataclass
        __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

        def __init__(self, **values: Any) -> None: ...

    def __init_subclass__(
        cls, *, path: str, schema_version: int | None = None, **kwargs: Any
    ) -> None:
        super().__init_subclass__(**kwargs)
        cls._path = path
        cls._schema_version = schema_version

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable payload: every field, in declaration order."""
        payload: dict[str, Any] = {}
        if self._schema_version is not None:
            payload["schema_version"] = self._schema_version
        for spec_field in fields(self):
            payload[spec_field.name] = _encode(getattr(self, spec_field.name))
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to JSON text; :meth:`from_json` restores an equal spec."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls: type[_S], payload: Any, path: str | None = None) -> _S:
        """Rebuild a spec from :meth:`to_dict` output.

        ``path`` names the payload in error messages.  Every failure is a
        :class:`SpecError`: a ``TypeError`` or ``ValueError`` raised while
        the spec is built (a list where a number belongs, a pair with one
        element) is re-raised as one that names ``path``.
        """
        path = cls._path if path is None else path
        version = cls._schema_version
        if version is not None and isinstance(payload, dict):
            payload = dict(payload)
            found = payload.pop("schema_version", None)
            if not isinstance(found, int) or found > version:
                raise SpecError(
                    f"unsupported {path} schema version {found!r} "
                    f"(this build reads <= {version})"
                )
            # Deliberate legacy read: payloads written before the engine
            # knob was removed hold "engine": null (or "fast", the batched
            # path every run takes); any other value asks for a link engine
            # that no longer exists.
            engine = payload.pop("engine", None)
            if engine not in (None, "fast"):
                raise SpecError(
                    f"{path} pins engine {engine!r}, which no longer exists: every run "
                    "uses the batched link engine, and the per-packet reference path "
                    "survives only as a test oracle; remove the 'engine' field"
                )
        data = _from_payload(cls, payload, path)
        token = _DECODING.set((cls, path))
        try:
            return cls(**{name: _decode_lists(value) for name, value in data.items()})
        except SpecError:
            raise
        except (TypeError, ValueError) as error:
            raise SpecError(f"{path}: {error}") from error
        finally:
            _DECODING.reset(token)

    @classmethod
    def from_json(cls: type[_S], text: str) -> _S:
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"{cls._path} is not valid JSON: {error}") from error
        return cls.from_dict(payload)


def _decode_spec(spec: Any, name: str, cls: type[_SpecCodec], path: str) -> None:
    """Decode the nested-spec field ``name`` of ``spec`` in place.

    JSON null reads as the field's default; anything else that is not
    already a ``cls`` decodes through ``cls.from_dict`` under ``path``, so a
    value that is not a JSON object fails there, naming ``path``.
    """
    value = getattr(spec, name)
    if value is None:
        default = type(spec).__dataclass_fields__[name]
        value = default.default if default.default_factory is MISSING else default.default_factory()
    elif not isinstance(value, cls):
        value = cls.from_dict(value, path)
    _set(spec, name, value)


def _decode_specs(spec: Any, name: str, cls: type[_SpecCodec], path: str) -> None:
    """Decode the tuple-of-specs field ``name`` of ``spec`` in place.

    JSON null reads as an empty tuple, and item ``i`` decodes as
    :func:`_decode_spec` decodes a single spec, under ``path[i]``.
    """
    value = getattr(spec, name)
    if value is None:
        value = ()
    if not isinstance(value, (tuple, list)):
        raise SpecError(f"{path} must be a JSON list, got {type(value).__name__}")
    _set(
        spec,
        name,
        tuple(
            item if isinstance(item, cls) else cls.from_dict(item, f"{path}[{i}]")
            for i, item in enumerate(value)
        ),
    )


def _require_mcs(name: str, path: str) -> None:
    if name not in MCS_NAMES:
        raise SpecError(f"{path} names unknown MCS {name!r}; choose one of {list(MCS_NAMES)}")


# --------------------------------------------------------------------------- #
# Channel                                                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChannelSpec(_SpecCodec, path="channel"):
    """Declarative propagation channel of a link (desired or interfering).

    ``kind`` selects the model: ``"flat"`` (single unit tap, the default),
    ``"exponential"`` (Rayleigh tapped delay line with an exponential power
    delay profile of ``delay_spread_ns``, optional Rician first tap) or
    ``"static"`` (caller-provided ``taps`` as ``[re, im]`` pairs, normalised
    to unit energy).
    """

    kind: str = "flat"
    delay_spread_ns: float | None = None
    rician_k_db: float | None = None
    taps: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "exponential", "static"):
            raise SpecError(
                f"channel kind must be 'flat', 'exponential' or 'static', got {self.kind!r}"
            )
        if self.taps is not None:
            coerced = tuple((float(re_), float(im)) for re_, im in self.taps)
            if not coerced:
                raise SpecError("channel taps must contain at least one [re, im] pair")
            _set(self, "taps", coerced)
        # Reject fields the chosen kind would silently ignore — the spec
        # must simulate exactly what it reads as.
        if self.kind == "flat":
            for name in ("delay_spread_ns", "rician_k_db", "taps"):
                if getattr(self, name) is not None:
                    raise SpecError(
                        f"a 'flat' channel has no {name}; use kind 'exponential' or 'static'"
                    )
        if self.kind == "exponential":
            if self.delay_spread_ns is None or self.delay_spread_ns < 0:
                raise SpecError(
                    "an 'exponential' channel needs a non-negative delay_spread_ns"
                )
            if self.taps is not None:
                raise SpecError("an 'exponential' channel draws its taps; remove 'taps'")
        if self.kind == "static":
            if self.taps is None:
                raise SpecError("a 'static' channel needs taps ([[re, im], ...])")
            for name in ("delay_spread_ns", "rician_k_db"):
                if getattr(self, name) is not None:
                    raise SpecError(f"a 'static' channel has fixed taps and no {name}")

    def build(self, sample_rate_hz: float) -> ChannelModel:
        """Instantiate the channel model for a grid at ``sample_rate_hz``."""
        if self.kind == "flat":
            return FlatChannel()
        if self.kind == "exponential":
            assert self.delay_spread_ns is not None  # enforced in __post_init__
            return ExponentialMultipathChannel(
                delay_spread_s=self.delay_spread_ns * 1e-9,
                sample_rate_hz=sample_rate_hz,
                rician_k_db=self.rician_k_db,
            )
        assert self.taps is not None  # enforced in __post_init__
        return StaticTapChannel(taps=tuple(complex(re_, im) for re_, im in self.taps))


# --------------------------------------------------------------------------- #
# Allocation                                                                  #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AllocationSpec(_SpecCodec, path="allocation"):
    """Declarative sender allocation.

    ``kind="dot11g"`` is the standard 802.11a/g 64-point grid;
    ``kind="wideband"`` is a contiguous block on a wider grid (the paper's
    generic ACI baseband).  When a :class:`ScenarioSpec` carries no
    allocation, the sender layout is derived from the interferer set instead
    (see :meth:`ScenarioSpec.sender_allocation`).
    """

    kind: str = "wideband"
    fft_size: int = 160
    cp_fraction: float = 0.25
    start_bin: int = 1
    n_subcarriers: int = 64
    n_pilots: int = 4
    name: str = "wideband-sender"

    def __post_init__(self) -> None:
        if self.kind not in ("dot11g", "wideband"):
            raise SpecError(f"allocation kind must be 'dot11g' or 'wideband', got {self.kind!r}")
        if self.kind == "dot11g":
            # The standard grid is fixed; silently dropping wideband geometry
            # would simulate something other than what the spec reads as.
            for geometry_field in ("fft_size", "cp_fraction", "start_bin",
                                   "n_subcarriers", "n_pilots"):
                default = type(self).__dataclass_fields__[geometry_field].default
                if getattr(self, geometry_field) != default:
                    raise SpecError(
                        f"allocation kind 'dot11g' has a fixed grid and ignores "
                        f"{geometry_field!r}; use kind 'wideband' to configure geometry"
                    )
            return
        # Bad geometry must fail here, not inside the sweep's workers.
        if not isinstance(self.cp_fraction, (int, float)) or not math.isfinite(self.cp_fraction):
            raise SpecError(
                f"allocation cp_fraction must be a finite number, got {self.cp_fraction!r}"
            )
        cp_length = round(self.fft_size * self.cp_fraction)
        if cp_length < 1:
            raise SpecError(
                f"allocation cp_fraction {self.cp_fraction!r} gives a cyclic prefix of "
                f"{cp_length} samples on the {self.fft_size}-bin grid; at least 1 is needed"
            )
        if self.start_bin + self.n_subcarriers > self.fft_size:
            raise SpecError(
                f"allocation n_subcarriers {self.n_subcarriers} from start_bin "
                f"{self.start_bin} does not fit in fft_size {self.fft_size}"
            )
        try:
            self.build()
        except ValueError as error:
            raise SpecError(f"invalid wideband allocation: {error}") from error

    def build(self) -> OfdmAllocation:
        """Instantiate the :class:`OfdmAllocation`."""
        if self.kind == "dot11g":
            if self.name != type(self).__dataclass_fields__["name"].default:
                return dot11g_allocation(name=self.name)
            return dot11g_allocation()
        return wideband_allocation(
            fft_size=self.fft_size,
            cp_fraction=self.cp_fraction,
            start_bin=self.start_bin,
            n_subcarriers=self.n_subcarriers,
            n_pilots=self.n_pilots,
            name=self.name,
        )


# --------------------------------------------------------------------------- #
# Interferers                                                                 #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InterfererSpec(_SpecCodec, path="interferer"):
    """One declarative interfering transmitter.

    ``kind="aci"`` places the interferer on the block of subcarriers
    adjacent to the sender (``side`` up/down, separated by
    ``guard_subcarriers`` empty bins); ``kind="cci"`` puts it on the
    sender's own subcarriers.  ``sir_db`` pins this interferer's individual
    SIR at the receiver; when ``None`` the interferer shares the scenario's
    total ``sir_db`` equally with every other unpinned interferer.
    ``edge_window_length`` of ``None`` resolves to the experiment default
    (:data:`repro.experiments.config.ACI_EDGE_WINDOW` for ACI, 0 for CCI).

    This is the *declarative* sibling of
    :class:`repro.channel.interference.InterfererSpec` (which carries a
    realised allocation); :meth:`build` converts one into the other.
    """

    kind: str
    sir_db: float | None = None
    guard_subcarriers: int = 4
    side: str = "upper"
    n_subcarriers: int = 64
    mcs_name: str = "qpsk-1/2"
    timing_offset: int | None = None
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    edge_window_length: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("aci", "cci"):
            raise SpecError(f"interferer kind must be 'aci' or 'cci', got {self.kind!r}")
        if self.side not in ("upper", "lower"):
            raise SpecError(f"interferer side must be 'upper' or 'lower', got {self.side!r}")
        if self.guard_subcarriers < 0:
            raise SpecError(
                f"interferer guard_subcarriers must be >= 0, got {self.guard_subcarriers}"
            )
        if self.n_subcarriers < 1:
            raise SpecError(f"interferer n_subcarriers must be >= 1, got {self.n_subcarriers}")
        if self.edge_window_length is not None and self.edge_window_length < 0:
            raise SpecError(
                f"interferer edge_window_length must be >= 0, got {self.edge_window_length}"
            )
        _require_mcs(self.mcs_name, "interferer mcs_name")
        _decode_spec(self, "channel", ChannelSpec, f"{_payload_path(self)} channel")

    def build(self, sender: OfdmAllocation, sir_db: float, index: int) -> RealizableInterferer:
        """Resolve to a realisable interferer on the sender's grid."""
        channel = self.channel.build(sender.sample_rate_hz)
        if self.kind == "aci":
            edge = ACI_EDGE_WINDOW if self.edge_window_length is None else self.edge_window_length
            return adjacent_channel_interferer(
                sender,
                sir_db=sir_db,
                guard_subcarriers=self.guard_subcarriers,
                n_subcarriers=self.n_subcarriers,
                side=self.side,
                mcs_name=self.mcs_name,
                timing_offset=self.timing_offset,
                channel=channel,
                edge_window_length=edge,
                label=self.label,
            )
        edge = 0 if self.edge_window_length is None else self.edge_window_length
        return co_channel_interferer(
            sender,
            sir_db=sir_db,
            mcs_name=self.mcs_name,
            timing_offset=self.timing_offset,
            channel=channel,
            edge_window_length=edge,
            label=self.label if self.label is not None else f"cci-{index}",
        )


# --------------------------------------------------------------------------- #
# Scenario                                                                    #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec(_SpecCodec, path="scenario"):
    """Declarative link-level scenario: sender + channel + interferer set.

    ``sir_db`` is the total signal-to-interference ratio shared by every
    interferer that does not pin its own ``sir_db``; ``snr_db`` of ``None``
    uses the per-MCS operating point of the paper
    (:data:`repro.experiments.config.SNR_FOR_MCS`).  ``payload_length`` of
    ``None`` inherits the experiment profile (or 100 bytes when built
    standalone).  :meth:`build` instantiates the runnable
    :class:`repro.channel.scenario.Scenario`.
    """

    mcs_name: str = "qpsk-1/2"
    payload_length: int | None = None
    snr_db: float | None = None
    sir_db: float | None = None
    allocation: AllocationSpec | None = None
    interferers: tuple[InterfererSpec, ...] = ()
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    n_preamble_symbols: int = 2
    pad_symbols: int = 2

    def __post_init__(self) -> None:
        _require_mcs(self.mcs_name, "scenario mcs_name")
        if self.payload_length is not None and self.payload_length < 1:
            raise SpecError(f"scenario payload_length must be >= 1, got {self.payload_length}")
        if self.n_preamble_symbols < 1:
            raise SpecError("scenario n_preamble_symbols must be >= 1")
        if self.pad_symbols < 0:
            raise SpecError("scenario pad_symbols must be >= 0")
        _decode_spec(self, "allocation", AllocationSpec, "allocation")
        _decode_specs(self, "interferers", InterfererSpec, "interferers")
        _decode_spec(self, "channel", ChannelSpec, "scenario channel")

    # ------------------------------------------------------------------ #
    def sender_allocation(self) -> OfdmAllocation:
        """Sender allocation: explicit spec, or derived from the ACI layout.

        With no ACI interferer the standard 802.11g grid is used; otherwise
        the paper's wideband layout sized by the widest guard band and by
        whether any interferer sits below the sender.
        """
        if self.allocation is not None:
            return self.allocation.build()
        aci = [spec for spec in self.interferers if spec.kind == "aci"]
        if not aci:
            return dot11g_allocation()
        return aci_sender_allocation(
            two_sided=any(spec.side == "lower" for spec in aci),
            guard_subcarriers=max(spec.guard_subcarriers for spec in aci),
        )

    def build(self) -> Scenario:
        """Instantiate the runnable :class:`Scenario` this spec describes."""
        sender = self.sender_allocation()
        snr_db = self.snr_db
        if snr_db is None:
            snr_db = SNR_FOR_MCS.get(self.mcs_name)
            if snr_db is None:
                raise SpecError(
                    f"scenario mcs {self.mcs_name!r} has no default SNR operating point; "
                    f"set snr_db explicitly (defaults exist for {sorted(SNR_FOR_MCS)})"
                )
        shared = [spec for spec in self.interferers if spec.sir_db is None]
        if shared and self.sir_db is None:
            raise SpecError(
                f"{len(shared)} interferer(s) have no sir_db and the scenario defines no "
                "shared sir_db; set scenario.sir_db (total SIR) or pin each interferer"
            )
        # The total SIR splits equally: each of n sharing interferers is
        # 10*log10(n) dB weaker, computed as 10*0.30103*log2(n) with the
        # paper's 0.30103 (~log10 2) dB-per-doubling constant.  log2 of 1 and
        # 2 is exactly 0.0 / 1.0, so one- and two-interferer scenarios get
        # the exact offsets 0 and 3.0103 dB that their recorded results use.
        shared_sir = None
        if shared:
            assert self.sir_db is not None  # enforced by the check above
            shared_sir = self.sir_db + 10.0 * 0.30103 * math.log2(len(shared))
        interferers = []
        for index, spec in enumerate(self.interferers):
            sir_db = spec.sir_db
            if sir_db is None:
                assert shared_sir is not None  # spec is in `shared`
                sir_db = shared_sir
            interferers.append(spec.build(sender, sir_db, index))
        return Scenario(
            sender,
            mcs_name=self.mcs_name,
            payload_length=100 if self.payload_length is None else self.payload_length,
            snr_db=snr_db,
            interferers=interferers,
            channel=self.channel.build(sender.sample_rate_hz),
            n_preamble_symbols=self.n_preamble_symbols,
            pad_symbols=self.pad_symbols,
        )


# --------------------------------------------------------------------------- #
# Network deployments                                                         #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeploymentSpec(_SpecCodec, path="deployment"):
    """Declarative multi-floor Wi-Fi deployment (the network-level scenario).

    ``topology`` names a placement rule in the topology registry
    (:func:`repro.api.registry.register_topology`; builtins: ``"building"``
    — the paper's per-floor grid with placement jitter, ``"grid"`` — the
    same grid without jitter, ``"random"`` — uniform-random placement).
    The remaining fields set the deployment size, footprint and the indoor
    path-loss model; AP density follows from ``n_floors x aps_per_floor``
    over the footprint.  ``placement_jitter_m`` of ``None`` uses the
    topology's default (3 m for ``building``, 0 for ``grid``); the
    ``random`` topology draws positions uniformly and rejects it.

    :meth:`build` resolves the topology into a runnable
    :class:`repro.network.building.Deployment`.
    """

    topology: str = "building"
    n_floors: int = 5
    aps_per_floor: int = 8
    floor_width_m: float = 80.0
    floor_depth_m: float = 40.0
    floor_height_m: float = 4.0
    tx_power_dbm: float = 20.0
    placement_jitter_m: float | None = None
    reference_loss_db: float = 47.0
    path_loss_exponent: float = 3.0
    floor_loss_db: float = 15.0
    shadowing_sigma_db: float = 6.0

    def __post_init__(self) -> None:
        if not self.topology or not isinstance(self.topology, str):
            raise SpecError(f"deployment topology must be a non-empty string, got {self.topology!r}")
        if self.n_floors < 1 or self.aps_per_floor < 1:
            raise SpecError(
                f"deployment needs n_floors >= 1 and aps_per_floor >= 1, got "
                f"{self.n_floors} x {self.aps_per_floor}"
            )
        for name in ("floor_width_m", "floor_depth_m", "floor_height_m"):
            if getattr(self, name) <= 0:
                raise SpecError(f"deployment {name} must be > 0, got {getattr(self, name)}")
        if self.placement_jitter_m is not None and self.placement_jitter_m < 0:
            raise SpecError(
                f"deployment placement_jitter_m must be >= 0, got {self.placement_jitter_m}"
            )
        if self.path_loss_exponent <= 0:
            raise SpecError(
                f"deployment path_loss_exponent must be > 0, got {self.path_loss_exponent}"
            )
        for name in ("floor_loss_db", "shadowing_sigma_db"):
            if getattr(self, name) < 0:
                raise SpecError(f"deployment {name} must be >= 0, got {getattr(self, name)}")

    @property
    def n_access_points(self) -> int:
        """Total number of access points the spec describes."""
        return self.n_floors * self.aps_per_floor

    def pathloss_model(self) -> "IndoorPathLossModel":
        """The indoor path-loss model the spec's parameters describe."""
        # Imported lazily: repro.network.links consumes this module, so a
        # module-level import of repro.network here would be circular.
        from repro.network.pathloss import IndoorPathLossModel

        return IndoorPathLossModel(
            reference_loss_db=self.reference_loss_db,
            path_loss_exponent=self.path_loss_exponent,
            floor_loss_db=self.floor_loss_db,
            shadowing_sigma_db=self.shadowing_sigma_db,
        )

    def build(self) -> "Deployment":
        """Resolve the topology registry into a runnable deployment.

        Resolution is deliberately lazy (unlike the rest of the spec's eager
        validation) so that topologies registered after the spec was
        constructed — e.g. by a plugin imported while loading a JSON spec —
        still resolve, mirroring :class:`ReceiverSpec`.
        """
        from repro.api.registry import resolve_topology

        return resolve_topology(self.topology)(self)


# --------------------------------------------------------------------------- #
# Receivers                                                                   #
# --------------------------------------------------------------------------- #
#: Default figure-legend label per registered receiver name.
RECEIVER_DISPLAY: dict[str, str] = {
    "standard": "Without CPRecycle",
    "cprecycle": "With CPRecycle",
    "oracle": "Oracle",
    "naive": "Naive decoder",
}


@dataclass(frozen=True)
class ReceiverSpec(_SpecCodec, path="receiver"):
    """One receiver under test, resolved through the plugin registry.

    ``name`` must be registered (builtins: ``standard``, ``cprecycle``,
    ``naive``, ``oracle``; add more with
    :func:`repro.api.registry.register_receiver`).  ``n_segments`` of
    ``None`` uses every ISI-free cyclic-prefix sample; ``options`` are extra
    keyword arguments for the registered builder (e.g. CPRecycle's
    ``model_scope``).  ``display`` overrides the series-label text.
    """

    name: str
    n_segments: int | None = None
    display: str | None = None
    options: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"receiver name must be a non-empty string, got {self.name!r}")
        if self.n_segments is not None and (
            isinstance(self.n_segments, bool)
            or not isinstance(self.n_segments, int)
            or self.n_segments < 1
        ):
            raise SpecError(
                f"receiver {self.name!r} n_segments must be an integer >= 1, "
                f"got {self.n_segments!r}"
            )
        if self.options is not None:
            if not isinstance(self.options, dict):
                raise SpecError(f"receiver options must be a JSON object, got {self.options!r}")
            try:
                _set(self, "options", json.loads(json.dumps(self.options)))
            except TypeError as error:
                raise SpecError(f"receiver options must be JSON-serialisable: {error}") from error

    @property
    def label(self) -> str:
        """Series-label text for this receiver."""
        if self.display is not None:
            return self.display
        return RECEIVER_DISPLAY.get(self.name, self.name)


# --------------------------------------------------------------------------- #
# Sweep                                                                       #
# --------------------------------------------------------------------------- #
#: Scenario fields a sweep axis may target directly.
SCENARIO_AXIS_FIELDS = ("sir_db", "mcs_name", "snr_db", "payload_length")
#: Axis fields with dedicated semantics (see repro.api.experiment).
SPECIAL_AXIS_FIELDS = ("guard_subcarriers", "segment_fraction", "n_segments")
#: Interferer fields addressable as ``interferers[i].<field>`` / ``[*]``.
INTERFERER_AXIS_FIELDS = (
    "sir_db",
    "guard_subcarriers",
    "side",
    "mcs_name",
    "timing_offset",
    "edge_window_length",
    "n_subcarriers",
)

_INTERFERER_AXIS = re.compile(r"interferers\[(\d+|\*)\]\.([a-z_]+)")

#: Interferer fields only the ACI geometry consumes; sweeping them on a CCI
#: interferer would silently re-simulate identical points.
_ACI_ONLY_FIELDS = ("guard_subcarriers", "side", "n_subcarriers")

#: Axis targets that carry floats — the only ones a ``span`` may materialise.
_FLOAT_AXIS_FIELDS = ("sir_db", "snr_db", "segment_fraction")


def _is_float_axis(field_name: str) -> bool:
    if field_name in _FLOAT_AXIS_FIELDS:
        return True
    match = _INTERFERER_AXIS.fullmatch(field_name)
    return match is not None and match.group(2) == "sir_db"


def _reshapes_allocation(field_name: str) -> bool:
    """True when sweeping ``field_name`` can change the derived sender grid."""
    if field_name == "guard_subcarriers":
        return True
    match = _INTERFERER_AXIS.fullmatch(field_name)
    return match is not None and match.group(2) in _ACI_ONLY_FIELDS


def axis_placeholder(field_name: str) -> str:
    """The ``series_label`` placeholder name of one sweep axis.

    Plain fields are their own placeholder (``{sir_db}``); bracketed
    interferer paths — which ``str.format`` cannot address — map to
    ``{interferer<i>_<field>}`` (``interferer_all_<field>`` for ``[*]``).
    """
    match = _INTERFERER_AXIS.fullmatch(field_name)
    if match is None:
        return field_name
    index, attr = match.groups()
    return f"interferer{'_all' if index == '*' else index}_{attr}"


@dataclass(frozen=True)
class SweepAxis(_SpecCodec, path="sweep axis"):
    """One grid dimension: a target field and its values.

    Either ``values`` (explicit grid) or ``span`` (an inclusive
    ``[low, high]`` range materialised into ``n_points`` evenly spaced
    values — ``n_points`` of ``None`` uses the profile's ``n_sir_points``).
    The *last* axis of a sweep is the figure's x-axis; earlier axes fan out
    into separate series.
    """

    field: str
    values: tuple[Any, ...] | None = None
    span: tuple[float, float] | None = None
    n_points: int | None = None

    def __post_init__(self) -> None:
        if not self.field or not isinstance(self.field, str):
            raise SpecError(f"sweep axis field must be a non-empty string, got {self.field!r}")
        if (self.values is None) == (self.span is None):
            raise SpecError(
                f"sweep axis {self.field!r} needs exactly one of 'values' or 'span'"
            )
        if self.values is not None:
            coerced = tuple(self.values)
            if not coerced:
                raise SpecError(f"sweep axis {self.field!r} has an empty values list")
            if len(set(coerced)) != len(coerced):
                raise SpecError(
                    f"sweep axis {self.field!r} has duplicate values {list(coerced)}; "
                    "each grid cell would be simulated more than once"
                )
            _set(self, "values", coerced)
        if self.span is not None:
            span = tuple(float(value) for value in self.span)
            if len(span) != 2:
                raise SpecError(f"sweep axis {self.field!r} span must be [low, high]")
            _set(self, "span", span)
        if self.n_points is not None and self.n_points < 2:
            raise SpecError(f"sweep axis {self.field!r} n_points must be >= 2")

    def resolve(self, n_points_default: int) -> "SweepAxis":
        """Materialise a ``span`` axis into explicit values."""
        if self.values is not None:
            return self
        assert self.span is not None  # __post_init__: exactly one of values/span
        n_points = self.n_points if self.n_points is not None else n_points_default
        return SweepAxis(field=self.field, values=tuple(sir_axis(self.span[0], self.span[1], n_points)))


@dataclass(frozen=True)
class SweepSpec(_SpecCodec, path="sweep"):
    """The experiment grid: one :class:`SweepAxis` per dimension, outer
    axes first.  Points are executed in row-major grid order."""

    axes: tuple[SweepAxis, ...]

    def __post_init__(self) -> None:
        _decode_specs(self, "axes", SweepAxis, "sweep axes")
        if not self.axes:
            raise SpecError("a sweep needs at least one axis")
        names = [axis.field for axis in self.axes]
        if len(set(names)) != len(names):
            raise SpecError(f"sweep axes target duplicate fields: {names}")

    @property
    def x_axis(self) -> SweepAxis:
        """The innermost axis — the figure's x dimension."""
        return self.axes[-1]


def _axis_probe_value(axis: SweepAxis) -> Any:
    """A representative value of one axis (for series_label probing)."""
    if axis.values is not None:
        return axis.values[0]
    assert axis.span is not None  # __post_init__: exactly one of values/span
    return axis.span[0]


def _validate_axis_field(field_name: str, scenario: ScenarioSpec) -> None:
    """Reject sweep axes that cannot apply to the scenario template."""
    if field_name == "sir_db":
        # The scenario-level SIR is only consumed by interferers that do
        # not pin their own; without one, every grid cell would simulate
        # identically.
        if not any(spec.sir_db is None for spec in scenario.interferers):
            raise SpecError(
                "sweep axis 'sir_db' needs at least one interferer without a pinned "
                "sir_db (the scenario-level SIR is the total shared by those); "
                "pinned-only scenarios should sweep 'interferers[i].sir_db' instead"
            )
        return
    if field_name in SCENARIO_AXIS_FIELDS or field_name in ("segment_fraction", "n_segments"):
        return
    if field_name == "guard_subcarriers":
        if not any(spec.kind == "aci" for spec in scenario.interferers):
            raise SpecError(
                "sweep axis 'guard_subcarriers' needs at least one ACI interferer in the scenario"
            )
        return
    match = _INTERFERER_AXIS.fullmatch(field_name)
    if match is not None:
        index, attr = match.groups()
        if attr not in INTERFERER_AXIS_FIELDS:
            raise SpecError(
                f"sweep axis {field_name!r} targets unknown interferer field {attr!r}; "
                f"valid: {list(INTERFERER_AXIS_FIELDS)}"
            )
        if index != "*" and int(index) >= len(scenario.interferers):
            raise SpecError(
                f"sweep axis {field_name!r} is out of range: the scenario has "
                f"{len(scenario.interferers)} interferer(s)"
            )
        if attr in _ACI_ONLY_FIELDS:
            targets = (
                scenario.interferers
                if index == "*"
                else (scenario.interferers[int(index)],)
            )
            if not any(spec.kind == "aci" for spec in targets):
                raise SpecError(
                    f"sweep axis {field_name!r} targets {attr!r}, which only ACI "
                    "interferers consume — the addressed interferer(s) are all CCI, "
                    "so every grid cell would simulate identically"
                )
        return
    raise SpecError(
        f"unknown sweep axis field {field_name!r}; valid: {list(SCENARIO_AXIS_FIELDS)}, "
        f"{list(SPECIAL_AXIS_FIELDS)}, or 'interferers[i].<field>' / 'interferers[*].<field>'"
    )


# --------------------------------------------------------------------------- #
# Experiment                                                                  #
# --------------------------------------------------------------------------- #
#: Valid x-axis display transforms (see repro.api.experiment).
X_TRANSFORMS = ("guard_mhz", "segment_percent_of_cp")

#: Experiment names become artifact filenames: one safe path component.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class ExperimentSpec(_SpecCodec, path="experiment spec", schema_version=SPEC_SCHEMA_VERSION):
    """One complete, serialisable experiment.

    ``kind="psr"`` (the default) sweeps packet success rate over the grid:
    ``scenario`` is the template, each :class:`SweepAxis` perturbs it (the
    last axis is the x-axis, earlier axes and the receiver set fan out into
    series named by ``series_label``).  ``kind="analysis"`` delegates to a
    registered analysis runner (``analysis`` + ``params``) — the paper's
    non-PSR figures (4, 6, 13, Table 1) use this.

    ``n_packets``/``payload_length``/``seed`` of ``None`` inherit the
    execution profile at :meth:`resolve` time; a resolved spec is fully
    self-contained and is what ``--dump-spec`` emits.
    """

    name: str
    figure: str
    title: str
    kind: str = "psr"
    scenario: ScenarioSpec | None = None
    receivers: tuple[ReceiverSpec, ...] = ()
    sweep: SweepSpec | None = None
    series_label: str = "{receiver}"
    x_label: str = "Signal to Interference ratio (dB)"
    x_transform: str | None = None
    y_label: str = "Packet Success Rate (%)"
    notes: tuple[str, ...] = ()
    analysis: str | None = None
    params: dict[str, Any] | None = None
    n_packets: int | None = None
    payload_length: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"experiment name must be a non-empty string, got {self.name!r}")
        if _NAME_PATTERN.fullmatch(self.name) is None:
            # The name becomes the <out>/<name>.json artifact filename, so it
            # must be a single safe path component.
            raise SpecError(
                f"experiment name {self.name!r} must start with a letter/digit and "
                "contain only letters, digits, '.', '_' or '-'"
            )
        if self.kind not in ("psr", "analysis"):
            raise SpecError(f"experiment kind must be 'psr' or 'analysis', got {self.kind!r}")
        if self.n_packets is not None and self.n_packets < 1:
            raise SpecError(f"experiment n_packets must be >= 1, got {self.n_packets}")
        if self.payload_length is not None and self.payload_length < 1:
            raise SpecError(f"experiment payload_length must be >= 1, got {self.payload_length}")
        _set(self, "notes", tuple(self.notes or ()))
        _decode_spec(self, "scenario", ScenarioSpec, "scenario")
        _decode_specs(self, "receivers", ReceiverSpec, "receivers")
        _decode_spec(self, "sweep", SweepSpec, "sweep")
        if self.kind == "analysis":
            self._validate_analysis()
        else:
            self._validate_psr()

    def _validate_analysis(self) -> None:
        if not self.analysis:
            raise SpecError(f"analysis experiment {self.name!r} must name its 'analysis' runner")
        if self.scenario is not None or self.sweep is not None or self.receivers:
            raise SpecError(
                f"analysis experiment {self.name!r} must not define scenario/sweep/receivers "
                "(its parameters go in 'params')"
            )
        if self.params is not None:
            if not isinstance(self.params, dict):
                raise SpecError(f"experiment params must be a JSON object, got {self.params!r}")
            reserved = {"profile", "n_workers"} & set(self.params)
            if reserved:
                raise SpecError(
                    f"experiment params must not name {sorted(reserved)}: the profile and "
                    "worker count come from the execution context (--profile/--workers)"
                )
            try:
                _set(self, "params", json.loads(json.dumps(self.params)))
            except TypeError as error:
                raise SpecError(f"experiment params must be JSON-serialisable: {error}") from error

    def _validate_psr(self) -> None:
        if self.analysis is not None or self.params is not None:
            raise SpecError(
                f"psr experiment {self.name!r} must not set 'analysis'/'params' "
                "(use kind='analysis' for registered analyses)"
            )
        if self.scenario is None:
            raise SpecError(f"psr experiment {self.name!r} needs a ScenarioSpec 'scenario'")
        if self.sweep is None:
            raise SpecError(f"psr experiment {self.name!r} needs a SweepSpec 'sweep'")
        if not self.receivers:
            raise SpecError(f"psr experiment {self.name!r} needs at least one ReceiverSpec")
        names = [receiver.name for receiver in self.receivers]
        if len(set(names)) != len(names):
            raise SpecError(f"receiver names must be unique, got {names}")
        for axis in self.sweep.axes:
            _validate_axis_field(axis.field, self.scenario)
            if axis.span is not None and not _is_float_axis(axis.field):
                raise SpecError(
                    f"sweep axis {axis.field!r} targets a non-float field and cannot use "
                    "'span' (which materialises evenly spaced floats); list explicit "
                    "'values' instead"
                )
        if self.x_transform is not None:
            if self.x_transform not in X_TRANSFORMS:
                raise SpecError(
                    f"unknown x_transform {self.x_transform!r}; valid: {list(X_TRANSFORMS)}"
                )
            required_x = {
                "guard_mhz": "guard_subcarriers",
                "segment_percent_of_cp": "segment_fraction",
            }[self.x_transform]
            if self.sweep.axes[-1].field != required_x:
                raise SpecError(
                    f"x_transform {self.x_transform!r} only applies to a "
                    f"{required_x!r} x-axis, but the innermost sweep axis is "
                    f"{self.sweep.axes[-1].field!r}"
                )
            if self.x_transform == "segment_percent_of_cp":
                # The % labels come from the template allocation's CP length;
                # an axis that reshapes the allocation would desync them from
                # the per-cell segment budgets.
                for axis in self.sweep.axes[:-1]:
                    if _reshapes_allocation(axis.field):
                        raise SpecError(
                            f"x_transform 'segment_percent_of_cp' cannot be combined "
                            f"with axis {axis.field!r}: it changes the derived "
                            "allocation (and with it the CP length the percentages "
                            "refer to) across the grid"
                        )
        # Label-collision check before any simulation: every outer (series)
        # axis must be distinguishable in the label, as must the receivers.
        used = {
            field_name
            for _, field_name, _, _ in string.Formatter().parse(self.series_label)
            if field_name
        }
        for axis in self.sweep.axes[:-1]:
            placeholder = axis_placeholder(axis.field)
            if placeholder not in used and not (axis.field == "mcs_name" and "mcs" in used):
                raise SpecError(
                    f"series_label {self.series_label!r} does not reference the outer "
                    f"sweep axis {axis.field!r} (placeholder {{{placeholder}}}), so its "
                    "series would collide; add the placeholder to series_label"
                )
        x_axis = self.sweep.axes[-1]
        x_placeholder = axis_placeholder(x_axis.field)
        if x_placeholder in used or (x_axis.field == "mcs_name" and "mcs" in used):
            raise SpecError(
                f"series_label {self.series_label!r} references the innermost sweep "
                f"axis {x_axis.field!r}, which is the x-axis — every x value would "
                "become its own one-point series; remove that placeholder"
            )
        if len(self.receivers) > 1:
            if "receiver" not in used:
                raise SpecError(
                    f"series_label {self.series_label!r} must reference {{receiver}} "
                    f"to distinguish the {len(self.receivers)} receivers"
                )
            labels = [receiver.label for receiver in self.receivers]
            if len(set(labels)) != len(labels):
                raise SpecError(f"receiver display labels must be unique, got {labels}")
        # Fail on bad series_label placeholders now, not per sweep point.
        # The probe context mirrors what the engine provides at runtime: one
        # placeholder per axis (bracketed interferer paths map to their
        # format-usable alias, see axis_placeholder), the receiver display,
        # and the pretty {mcs} form only when an mcs_name axis exists.  Each
        # axis probes with a representative value so type-dependent format
        # specs ({mcs_name:s}, {sir_db:g}) validate correctly.
        context = {
            axis_placeholder(axis.field): _axis_probe_value(axis)
            for axis in self.sweep.axes
        }
        context["receiver"] = ""
        if "mcs_name" in context:
            context["mcs"] = ""
        try:
            self.series_label.format(**context)
        except (KeyError, IndexError, ValueError) as error:
            raise SpecError(
                f"series_label {self.series_label!r} is not formattable ({error}); "
                f"available placeholders: {sorted(context)}"
            ) from error

    # ------------------------------------------------------------------ #
    def resolve(self, profile: Any = None) -> "ExperimentSpec":
        """Fill profile-dependent gaps; the result is self-contained.

        ``profile`` defaults to
        :func:`repro.experiments.config.default_profile`.  Resolution is
        idempotent: resolving a resolved spec returns an equal spec, which
        keeps content hashes stable across processes.
        """
        from repro.experiments.config import default_profile

        profile = profile if profile is not None else default_profile()
        n_packets = self.n_packets if self.n_packets is not None else profile.n_packets
        payload = self.payload_length if self.payload_length is not None else profile.payload_length
        seed = self.seed if self.seed is not None else profile.seed
        if self.kind == "analysis":
            return replace(self, n_packets=n_packets, payload_length=payload, seed=seed)
        scenario = self.scenario
        assert scenario is not None and self.sweep is not None  # psr-validated
        if scenario.payload_length is None:
            scenario = replace(scenario, payload_length=payload)
        sweep = SweepSpec(
            axes=tuple(axis.resolve(profile.n_sir_points) for axis in self.sweep.axes)
        )
        return replace(
            self,
            scenario=scenario,
            sweep=sweep,
            n_packets=n_packets,
            payload_length=payload,
            seed=seed,
        )
