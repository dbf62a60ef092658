"""Experiment configuration: sources per port, the network transfer matrix,
detectors per mode, and optional mode-mismatch bookkeeping.

Configurations are declared as JSON.  Each source entry holds its kind's
``kind`` name and dataclass fields (see :mod:`pqsim.states`).  One-port
sources fill free ports in declaration order (or pin one with ``"port"``);
SPDC entries always name their ``herald`` and ``signal`` ports.  The network
is either an inline or on-disk matrix, the identity, or a uniform-loss model
that realizes ``sqrt(eta_l) * U`` with a seeded Haar-random unitary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .detectors import DetectorModel
from .errors import ConfigError, ContractionError, DimensionError, UnsupportedSourceError
from .linalg import haar_unitary, validate_transfer
from .matrixio import load_matrix, matrix_from_dict, matrix_to_dict
from .processes import uniform_loss_eta
from .rng import RngStream
from .states import SOURCE_KINDS, SourceModel, SpdcPair, require_unit_interval

SCHEME_SINGLE_PHOTON = "single-photon"
SCHEME_SPDC = "spdc"


@dataclass(frozen=True)
class PortSource:
    """A source together with the input port(s) it occupies."""

    source: SourceModel
    ports: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.source, SourceModel):
            raise UnsupportedSourceError(f"unknown source model {self.source!r}")
        ports = tuple(int(p) for p in self.ports)
        if len(ports) != len(self.source.port_names):
            raise ConfigError(
                f"sources: {type(self.source).__name__} occupies "
                f"{len(self.source.port_names)} port(s), got {ports}"
            )
        if len(set(ports)) != len(ports):
            raise ConfigError(f"sources: duplicate port in {ports}")
        object.__setattr__(self, "ports", ports)


@dataclass(frozen=True)
class Mismatch:
    """Fractions of the input-coupling and in-network photon losses that
    still reach the detectors as random counts."""

    f_b: float = 0.0
    f_l: float = 0.0

    def __post_init__(self):
        require_unit_interval(self, "f_b", "f_l")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; the unit every engine consumes."""

    modes: int
    sources: tuple[PortSource, ...]
    transfer: np.ndarray
    detectors: tuple[DetectorModel, ...]
    mismatch: Mismatch | None = None
    scheme: str | None = None
    lon_spec: dict | None = None
    #: Whether L^dag L is diagonal within PSD_TOL, from the contraction test.
    diagonal_gram: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.modes < 1:
            raise ConfigError(f"modes: must be >= 1, got {self.modes}")
        covered = [p for entry in self.sources for p in entry.ports]
        if sorted(covered) != list(range(self.modes)):
            raise ConfigError(
                "sources: ports must cover each of "
                f"0..{self.modes - 1} exactly once, got {sorted(covered)}"
            )
        try:
            transfer, diagonal_gram = validate_transfer(self.transfer, diagonal_gram=True)
        except (ContractionError, DimensionError) as exc:
            raise ConfigError(f"lon: {exc}") from exc
        if transfer.shape[0] != self.modes:
            raise ConfigError(
                f"lon: matrix is {transfer.shape[0]} x {transfer.shape[1]} "
                f"but the experiment has {self.modes} modes"
            )
        if len(self.detectors) != self.modes:
            raise ConfigError(
                f"detectors: need one per mode ({self.modes}), got {len(self.detectors)}"
            )
        scheme = self.scheme
        if scheme is None:
            has_spdc = any(isinstance(e.source, SpdcPair) for e in self.sources)
            scheme = SCHEME_SPDC if has_spdc else SCHEME_SINGLE_PHOTON
        if scheme not in (SCHEME_SINGLE_PHOTON, SCHEME_SPDC):
            raise ConfigError(f"scheme: unknown scheme {scheme!r}")
        object.__setattr__(self, "transfer", transfer)
        object.__setattr__(self, "diagonal_gram", diagonal_gram)
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "scheme", scheme)

    # ndarray fields break the generated __eq__; compare content instead.
    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return (
            self.modes == other.modes
            and self.sources == other.sources
            and np.array_equal(self.transfer, other.transfer)
            and self.detectors == other.detectors
            and self.mismatch == other.mismatch
            and self.scheme == other.scheme
        )

    def identical_detectors(self) -> DetectorModel | None:
        """The common detector model, or None when modes differ."""
        first = self.detectors[0]
        return first if all(d == first for d in self.detectors) else None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out = self._spec()
        if self.lon_spec is None:
            out["lon"] = {"kind": "matrix"} | matrix_to_dict(self.transfer)
        return out

    def _spec(self) -> dict:
        """:meth:`to_dict` without the entries of a matrix the config was
        built from directly (``lon`` is then ``{"kind": "matrix"}``)."""
        out = {
            "modes": self.modes,
            "scheme": self.scheme,
            "sources": [_source_to_dict(entry) for entry in self.sources],
            "lon": self.lon_spec if self.lon_spec is not None else {"kind": "matrix"},
            "detectors": [_fields_to_dict(d) for d in self.detectors],
        }
        if self.mismatch is not None:
            out["mismatch"] = _fields_to_dict(self.mismatch)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """SHA-256 of the canonicalized JSON form; stable across platforms.

        A network given as a matrix (inline or by file) is hashed as
        ``{"kind": "matrix"}`` in the JSON, followed by the transfer matrix
        as little-endian complex128 bytes in C order, so the hash depends on
        the entries, not on how they were stored, and costs no JSON of M^2
        numbers.
        """
        spec = self._spec()
        matrix = spec["lon"].get("kind") == "matrix"
        if matrix:
            spec["lon"] = {"kind": "matrix"}
        canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode())
        if matrix:
            digest.update(np.ascontiguousarray(self.transfer, dtype="<c16"))
        return digest.hexdigest()

    @classmethod
    def from_dict(cls, data: dict, base_dir=None) -> "ExperimentConfig":
        return _config_from_dict(data, base_dir)


# Field annotations are strings (postponed evaluation); a complex field is
# written in JSON as [re, im].
_COMPLEX = "complex"


def _fields_to_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == _COMPLEX:
            value = [complex(value).real, complex(value).imag]
        out[f.name] = value
    return out


def _source_to_dict(entry: PortSource) -> dict:
    src = entry.source
    return {"kind": src.kind} | _fields_to_dict(src) | dict(zip(src.port_names, entry.ports))


def _refuse_unknown(raw: dict, known, context: str) -> None:
    unknown = raw.keys() - known
    if unknown:
        raise ConfigError(f"{context}.{min(map(str, unknown))}: unknown key; "
                          f"expected one of {sorted(known)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(data: dict, field: str, context: str, default=MISSING):
    if field not in data:
        if default is not MISSING:
            return default
        raise ConfigError(f"{context}.{field}: required field is missing")
    value = data[field]
    if not _is_number(value):
        raise ConfigError(f"{context}.{field}: expected a number, got {value!r}")
    return value


def _require_integer(data: dict, field: str, context: str, default=MISSING) -> int:
    value = _require_number(data, field, context, default=default)
    if not isinstance(value, int):
        raise ConfigError(f"{context}.{field}: expected an integer, got {value!r}")
    return value


def _parse_field(raw: dict, f, context: str):
    value = raw.get(f.name)
    if f.type != _COMPLEX:
        value = _require_number(raw, f.name, context, default=f.default)
    elif not (isinstance(value, (list, tuple)) and len(value) == 2
              and all(map(_is_number, value))):
        raise ConfigError(f"{context}.{f.name}: expected [re, im]")
    try:
        parts = [float(part) for part in (value if f.type == _COMPLEX else [value])]
    except OverflowError:
        raise ConfigError(f"{context}.{f.name}: number too large for a float") from None
    return complex(*parts) if f.type == _COMPLEX else value


def _parse_fields(cls, raw, context: str, extra=()):
    """Build the dataclass ``cls`` from the JSON object ``raw``: each field is
    read by its annotation, with the field's own default, and keys that are
    neither fields nor in ``extra`` are refused.  Errors name ``context``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object, got {raw!r}")
    cls_fields = fields(cls)
    _refuse_unknown(raw, {*extra, *(f.name for f in cls_fields)}, context)
    values = [_parse_field(raw, f, context) for f in cls_fields]
    try:
        return cls(*values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_source(raw, index: int) -> tuple[SourceModel, dict]:
    context = f"sources[{index}]"
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected an object or source name, got {raw!r}")
    kind = raw.get("kind")
    cls = SOURCE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{context}.kind: unknown source kind {kind!r}")
    return _parse_fields(cls, raw, context, extra=("kind", *cls.port_names)), raw


def _assign_ports(parsed, modes: int) -> list[PortSource]:
    declared = sum(len(source.port_names) for source, _ in parsed)
    if declared < modes:
        raise ConfigError(f"sources: {modes - declared} of {modes} ports have no source")
    claimed: dict[int, int] = {}

    def claim(port, index, context):
        if isinstance(port, bool) or not isinstance(port, int):
            raise ConfigError(f"{context}: expected an integer port, got {port!r}")
        if not 0 <= port < modes:
            raise ConfigError(f"{context}: port {port!r} outside 0..{modes - 1}")
        if port in claimed:
            raise ConfigError(
                f"{context}: port {port} already taken by sources[{claimed[port]}]"
            )
        claimed[port] = index

    entries: list[tuple[int, SourceModel, tuple[int, ...] | None]] = []
    for index, (source, raw) in enumerate(parsed):
        names = source.port_names
        if all(name in raw for name in names):
            for name in names:
                claim(raw[name], index, f"sources[{index}].{name}")
            entries.append((index, source, tuple(raw[name] for name in names)))
        elif len(names) > 1:
            raise ConfigError(
                f"sources[{index}]: {source.kind} entries must name "
                f"{' and '.join(names)} ports"
            )
        else:
            entries.append((index, source, None))

    # `declared >= modes`: no port is left free unless the free ones run out.
    free = (p for p in range(modes) if p not in claimed)
    out = []
    for index, source, ports in entries:
        if ports is None:
            port = next(free, None)
            if port is None:
                raise ConfigError(
                    f"sources[{index}]: more sources than free ports (modes={modes})"
                )
            ports = (port,)
        out.append(PortSource(source, ports))
    return out


def _parse_lon(raw, modes: int, base_dir) -> tuple[np.ndarray, dict]:
    if raw in ("identity", None):
        raw = {"kind": "identity"}
    if not isinstance(raw, dict):
        raise ConfigError(f"lon: expected an object or 'identity', got {raw!r}")
    kind = raw.get("kind")
    if kind == "identity":
        _refuse_unknown(raw, {"kind"}, "lon")
        return np.eye(modes, dtype=complex), {"kind": "identity"}
    if kind == "matrix":
        if "file" in raw:
            _refuse_unknown(raw, {"kind", "file"}, "lon")
            path = Path(raw["file"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            try:
                matrix = load_matrix(path)
            except (OSError, ValueError) as exc:  # DimensionError is a ValueError
                raise ConfigError(f"lon.file: {exc}") from exc
            return matrix, dict(raw)
        _refuse_unknown(raw, {"kind", "rows", "cols", "re", "im"}, "lon")
        try:
            return matrix_from_dict(raw), dict(raw)
        except ValueError as exc:
            raise ConfigError(f"lon: {exc}") from exc
    if kind == "uniform-loss":
        _refuse_unknown(raw, {"kind", "eta0", "ell", "M", "unitary_seed"}, "lon")
        m = _require_integer(raw, "M", "lon")
        if m != modes:
            raise ConfigError(f"lon.M: must equal modes ({modes}), got {m}")
        eta0, ell = _require_number(raw, "eta0", "lon"), _require_integer(raw, "ell", "lon")
        seed = _require_integer(raw, "unitary_seed", "lon", default=0)
        try:
            eta_l = uniform_loss_eta(eta0, ell, m)
        except ValueError as exc:
            raise ConfigError(f"lon: {exc}") from exc
        return np.sqrt(eta_l) * haar_unitary(m, RngStream(seed)), dict(raw)
    raise ConfigError(f"lon.kind: unknown network kind {kind!r}")


def _parse_detectors(raw, modes: int) -> tuple[DetectorModel, ...]:
    if isinstance(raw, dict):
        return (_parse_fields(DetectorModel, raw, "detectors"),) * modes
    if not isinstance(raw, list):
        raise ConfigError(f"detectors: expected an object or list, got {raw!r}")
    return tuple(_parse_fields(DetectorModel, d, f"detectors[{k}]") for k, d in enumerate(raw))


def _config_from_dict(data: dict, base_dir=None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
    _refuse_unknown(data, {"modes", "scheme", "sources", "lon", "detectors", "mismatch"},
                    "config")
    modes = data.get("modes")
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise ConfigError(f"modes: expected a positive integer, got {modes!r}")
    raw_sources = data.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise ConfigError("sources: expected a non-empty list")
    parsed = [_parse_source(raw, k) for k, raw in enumerate(raw_sources)]
    port_sources = _assign_ports(parsed, modes)
    if "lon" not in data:
        raise ConfigError("lon: required field is missing")
    transfer, lon_spec = _parse_lon(data["lon"], modes, base_dir)
    if "detectors" not in data:
        raise ConfigError("detectors: required field is missing")
    detectors = _parse_detectors(data["detectors"], modes)
    mismatch = data.get("mismatch")
    if mismatch is not None:
        mismatch = _parse_fields(Mismatch, mismatch, "mismatch")
    return ExperimentConfig(
        modes=modes,
        sources=tuple(port_sources),
        transfer=transfer,
        detectors=detectors,
        mismatch=mismatch,
        scheme=data.get("scheme"),
        lon_spec=lon_spec,
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return _config_from_dict(data, base_dir=path.parent)
