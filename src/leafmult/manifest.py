"""Problem manifests and trace files.

A manifest is a JSON object declaring the ring, the two vector fields, the
base point, the input polynomials and options; traces echo the manifest,
carry a version marker, and store every certificate needed for offline
re-verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ParseError
from .foliation import FoliationContext, VectorField
from .poly import Polynomial, parse_polynomial

TRACE_VERSION = 1


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational literal {text!r}: {e}")


@dataclass
class ProblemManifest:
    variables: tuple
    v1: tuple
    v2: tuple
    point: tuple
    f: Optional[Polynomial] = None
    g: Optional[Polynomial] = None
    ideal_generators: tuple = ()
    options: dict = dfield(default_factory=dict)

    @staticmethod
    def from_dict(data: dict) -> "ProblemManifest":
        if not isinstance(data, dict):
            raise ParseError("a manifest is a JSON object")
        try:
            variables = tuple(data["variables"])
            if not variables:
                raise ParseError("empty variable list")
            v1 = tuple(parse_polynomial(t, variables) for t in data["v1"])
            v2 = tuple(parse_polynomial(t, variables) for t in data["v2"])
            point = tuple(_fraction(x) for x in data["point"])
        except KeyError as e:
            raise ParseError(f"manifest missing required field {e}")
        if len(v1) != len(variables) or len(v2) != len(variables):
            raise ParseError("vector fields need one component per variable")
        if len(point) != len(variables):
            raise ParseError("point arity does not match the variable list")
        f = parse_polynomial(data["f"], variables) if "f" in data else None
        g = parse_polynomial(data["g"], variables) if "g" in data else None
        ideal = tuple(parse_polynomial(t, variables) for t in data.get("ideal", ()))
        options = dict(data.get("options", {}))
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
