"""Problem manifests and trace files.

A manifest is a JSON object declaring the ring, the two vector fields, the
base point, the input polynomials and options; traces echo the manifest,
carry a version marker, and store every certificate needed for offline
re-verification.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ParseError
from .foliation import FoliationContext, VectorField
from .poly import Polynomial, parse_polynomial

TRACE_VERSION = 1
# the accepted manifest options and their types; jet_order and budget are >= 0
OPTION_TYPES = {"seed": int, "jet_order": int, "budget": int, "trace": str}


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational literal {text!r}: {e}")


def _array(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ParseError(f"manifest field {key!r} must be a JSON array")
    return value


def _polynomial(text, variables: tuple) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"a polynomial must be a string, not {text!r}")
    return parse_polynomial(text, variables)


def _options(options) -> dict:
    if not isinstance(options, dict):
        raise ParseError("manifest options must be a JSON object")
    for key, value in options.items():
        kind = OPTION_TYPES.get(key)
        if kind is None:
            raise ParseError(f"unknown manifest option {key!r}; "
                             f"known: {', '.join(OPTION_TYPES)}")
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParseError(f"manifest option {key!r} must be {kind.__name__}, not {value!r}")
        if key in ("jet_order", "budget") and value < 0:
            raise ParseError(f"manifest option {key!r} must be >= 0, not {value}")
    return dict(options)


class ProblemManifest:
    __slots__ = ("variables", "v1", "v2", "point", "f", "g", "ideal_generators", "options")

    def __init__(self, variables: tuple, v1: tuple, v2: tuple, point: tuple,
                 f: Optional[Polynomial] = None, g: Optional[Polynomial] = None,
                 ideal_generators: tuple = (), options: Optional[dict] = None):
        self.variables = variables
        self.v1 = v1
        self.v2 = v2
        self.point = point
        self.f = f
        self.g = g
        self.ideal_generators = ideal_generators
        self.options = {} if options is None else options

    @staticmethod
    def from_dict(data: dict) -> "ProblemManifest":
        if not isinstance(data, dict):
            raise ParseError("a manifest is a JSON object")
        try:
            variables = tuple(_array(data, "variables"))
            if not variables:
                raise ParseError("empty variable list")
            if not all(isinstance(v, str) for v in variables) \
                    or len(set(variables)) != len(variables):
                raise ParseError(f"variables must be distinct names, not {list(variables)}")
            v1 = tuple(_polynomial(t, variables) for t in _array(data, "v1"))
            v2 = tuple(_polynomial(t, variables) for t in _array(data, "v2"))
            point = tuple(_fraction(x) for x in _array(data, "point"))
        except KeyError as e:
            raise ParseError(f"manifest missing required field {e}")
        if len(v1) != len(variables) or len(v2) != len(variables):
            raise ParseError("vector fields need one component per variable")
        if len(point) != len(variables):
            raise ParseError("point arity does not match the variable list")
        f = _polynomial(data["f"], variables) if "f" in data else None
        g = _polynomial(data["g"], variables) if "g" in data else None
        ideal = tuple(_polynomial(t, variables) for t in _array(data, "ideal")) \
            if "ideal" in data else ()
        options = _options(data.get("options", {}))
        return ProblemManifest(variables, v1, v2, point, f, g, ideal, options)

    @staticmethod
    def load(path) -> "ProblemManifest":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ParseError(f"cannot read manifest {path}: {e}")
        return ProblemManifest.from_dict(data)

    def to_dict(self) -> dict:
        out = {
            "variables": list(self.variables),
            "v1": [str(c) for c in self.v1],
            "v2": [str(c) for c in self.v2],
            "point": [str(c) for c in self.point],
        }
        if self.f is not None:
            out["f"] = str(self.f)
        if self.g is not None:
            out["g"] = str(self.g)
        if self.ideal_generators:
            out["ideal"] = [str(g) for g in self.ideal_generators]
        if self.options:
            out["options"] = self.options
        return out

    def context(self) -> FoliationContext:
        field1 = VectorField(self.variables, self.v1)
        field2 = VectorField(self.variables, self.v2)
        return FoliationContext(field1, field2, self.point)

    def ideal(self) -> IdealPresentation:
        from .ideals import IdealPresentation
        return IdealPresentation(self.variables, self.ideal_generators)

    def pipeline_options(self, seed=None, jet_order=None) -> PipelineOptions:
        from .pairs import PipelineOptions
        opts = self.options
        return PipelineOptions(
            seed=seed if seed is not None else opts.get("seed", 0),
            jet_order=jet_order if jet_order is not None else opts.get("jet_order"),
        )


def write_trace(path, manifest: ProblemManifest, report_data: dict):
    payload = {
        "trace_version": TRACE_VERSION,
        "manifest": manifest.to_dict(),
        "report": report_data,
    }
    Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return payload


def load_trace(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read trace {path}: {e}")
    if not isinstance(data, dict):
        raise ParseError(f"trace {path} is not a JSON object")
    if data.get("trace_version") != TRACE_VERSION:
        raise ParseError(f"unsupported trace version {data.get('trace_version')!r}")
    return data
