"""Command-line surface: verify, r0, sweep and ngm subcommands.

Configs are JSON (see README for the schema); "-" reads stdin. Exit
codes: 0 success, 1 property failure, 2 config error, 3 numerical
(singularity / convergence / overflow) error.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import click
import numpy as np

from .densela import Matrix, matmul
from .eigen import eigenvalues
from .errors import (ConfigError, ConvergenceError, NonFiniteError,
                     SingularMatrixError)
from .minorlimit import ConvergenceReport, DiagonalRay, limit_minor_inverse
from .ngm import NGMPair, r0, r0_removal_limit
from .relapse import HostParams, VectorParams, _build_ngm, _r0_closed
from .verify import run_all

EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_FAULT_MAGNITUDE = 1e-3


# ---------------------------------------------------------------------------
# deterministic JSON / CSV rendering

def _format_float(x: float) -> str:
    """17-significant-digit decimal with a guaranteed float marker."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    text = format(float(x), ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def render_json(obj, indent: int = 0) -> str:
    """Serialize with 17-significant-digit floats and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "nan" if math.isnan(x) else _format_float(x)
    return str(x)


def _emit(text: str, out: "str | None") -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ConfigError("out", f"cannot write {out}: {exc}") from None
    else:
        click.echo(text)


@contextmanager
def _error_exits():
    # an overflow is reported by the typed error alone, not also by NumPy's
    # RuntimeWarning; the LAPACK kernels' own errstates still raise theirs
    try:
        with np.errstate(all="ignore"):
            yield
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except (SingularMatrixError, ConvergenceError, NonFiniteError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)


# ---------------------------------------------------------------------------
# config parsing
#
# The CLI checks only what the JSON alone shows: objects and arrays,
# missing keys, model.kind and the --schedule string. Every other rule is
# the library's: its constructors are called through _built, and the
# limit functions check the schedule, naming it by its config key.

def _load_config(path: str) -> dict:
    if path == "-":
        raw = sys.stdin.read()
        source = "stdin"
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}")
        source = path
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {source}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _built(path: str, make, *args, **keys):
    """``make(*args)``, with a ValueError it raises re-raised as a
    ConfigError at the config key that fed the rejected input.

    A library ConfigError names its input, index included (``alpha[0]``,
    ``i``, ``schedule[1]``). ``keys`` maps such a name to its config key;
    any other name is a member of the object at ``path``. A ValueError
    that names no input is charged to ``path``; a NonFiniteError, an
    overflow in what ``make`` computed, passes through.
    """
    try:
        return make(*args)
    except ConfigError as exc:
        name, bracket, index = exc.field.partition("[")
        key = keys.get(name, f"{path}.{name}")
        raise ConfigError(key + bracket + index, exc.reason) from None
    except NonFiniteError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_params(cls, model: dict, key: str):
    """The HostParams or VectorParams at ``model.<key>``."""
    obj, path = _require(model, key, "model"), f"model.{key}"
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    return _built(path, cls, *(_require(obj, field.name, path)
                               for field in fields(cls)))


_HOST_KEYS = {"uncoupled": ("host",), "coupled": ("host1", "host2")}


def _parse_model(cfg: dict) -> tuple[tuple[HostParams, ...], VectorParams]:
    """The configured host chains and vector; only r0 needs the closed form."""
    model = cfg.get("model")
    if not isinstance(model, dict):
        raise ConfigError("model", "must be an object")
    kind = _require(model, "kind", "model")
    vec = _parse_params(VectorParams, model, "vector")
    if not isinstance(kind, str) or kind not in _HOST_KEYS:
        raise ConfigError("model.kind",
                          f'must be "uncoupled" or "coupled", got {kind!r}')
    hosts = tuple(_parse_params(HostParams, model, key)
                  for key in _HOST_KEYS[kind])
    return hosts, vec


def _parse_matrix(value, field: str) -> Matrix:
    if not isinstance(value, list):
        raise ConfigError(field, "must be an array of rows")
    return _built(field, Matrix, value, rows=field)


def _schedule_from(cfg: dict, flag: "str | None"):
    """The raw schedule of the flag or the config, or None; the limit
    functions check its values."""
    if flag is not None:
        try:
            return [float(part) for part in flag.split(",") if part.strip()]
        except ValueError:
            raise ConfigError("schedule",
                              f"--schedule must be comma-separated numbers, "
                              f"got {flag!r}") from None
    if "schedule" in cfg:
        if not isinstance(cfg["schedule"], list):
            raise ConfigError("schedule", "must be an array of numbers")
        return cfg["schedule"]
    return None


def _parse_raw_pair(obj, path: str) -> NGMPair:
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    f = _parse_matrix(_require(obj, "f", path), f"{path}.f")
    v = _parse_matrix(_require(obj, "v", path), f"{path}.v")
    labels = obj.get("labels")
    if labels is None:
        labels = [f"C{k}" for k in range(1, f.rows + 1)]
    if (not isinstance(labels, list)
            or not all(isinstance(name, str) for name in labels)):
        raise ConfigError(f"{path}.labels", "must be an array of strings")
    return _built(path, NGMPair, f, v, tuple(labels))


# ---------------------------------------------------------------------------
# commands

@click.group()
def main():
    """Minor-removal inverse limits and reproduction numbers for
    relapsing vector-borne disease models."""


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=42,
              show_default=True, help="Base seed for every property corpus.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here instead of stdout.")
@click.option("--inject-fault",
              type=click.Choice(["builder-perturbation"]), default=None,
              hidden=True,
              help="Perturb the coupled builder to prove the checks "
                   "can fail.")
def verify(seed, out, inject_fault):
    """Run the full property suite and emit a JSON report."""
    fault = _FAULT_MAGNITUDE if inject_fault else 0.0
    results = run_all(seed, builder_fault=fault)
    for result in results:
        click.echo(result.summary_line(), err=True)
    report = {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        # keyed in CriterionResult's field order
        "criteria": [asdict(r) for r in results],
    }
    with _error_exits():
        _emit(render_json(report), out)
    sys.exit(0 if report["all_passed"] else EXIT_PROPERTY_FAILURE)


@main.command("r0")
@click.option("--config", "config_path", default="-", show_default=True,
              help='JSON config path; "-" reads stdin.')
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_r0(config_path, out):
    """Compute r0 by closed form and spectral radius, with their gap."""
    with _error_exits():
        cfg = _load_config(config_path)
        if "ngm" in cfg:
            pair, closed = _parse_raw_pair(cfg["ngm"], "ngm"), None
        elif "model" in cfg:
            model = _parse_model(cfg)
            pair, closed = _build_ngm(*model), _r0_closed(*model).value
        else:
            raise ConfigError("config",
                              'needs a "model" or "ngm" section')
        spectral = r0(pair)
        gap = None if closed is None else abs(spectral - closed) / closed
        _emit(render_json({
            "closed_form": closed,
            "spectral": spectral,
            "relative_gap": gap,
        }), out)


def _report_rows(report: ConvergenceReport):
    rows = []
    for k, t in enumerate(report.schedule):
        rows.append({
            "t": t,
            "raw_error": report.errors[k],
            "extrapolated_error": (math.nan if k == 0
                                   else report.extrapolated_errors[k - 1]),
            "flagged": report.flagged[k],
        })
    return rows


@main.command()
@click.option("--config", "config_path", default="-", show_default=True,
              help='JSON config path; "-" reads stdin.')
@click.option("--schedule", "schedule_flag", default=None,
              help='Override the t schedule: "t1,t2,...".')
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def sweep(config_path, schedule_flag, out, fmt):
    """Sweep a limit schedule and report per-point errors.

    With a "matrix" config the minor-inverse limit is swept; with a
    "model" config the removal limit of the configured stage is swept.
    """
    with _error_exits():
        cfg = _load_config(config_path)
        schedule = _schedule_from(cfg, schedule_flag)
        if "matrix" in cfg:
            base = _parse_matrix(cfg["matrix"], "matrix")
            ray = _built("matrix", DiagonalRay, base,
                         _require(cfg, "index", "config"), i="index")
            _, report = limit_minor_inverse(ray, schedule)
        elif "model" in cfg:
            pair = _build_ngm(*_parse_model(cfg))
            report = _built("remove_stage", r0_removal_limit, pair,
                            _require(cfg, "remove_stage", "config"),
                            schedule, i="remove_stage", schedule="schedule")
        else:
            raise ConfigError("config",
                              'needs a "matrix" or "model" section')
        rows = _report_rows(report)
        if fmt == "json":
            for row in rows:
                for key in ("raw_error", "extrapolated_error"):
                    if math.isnan(row[key]):
                        row[key] = None
            _emit(render_json({"rows": rows,
                               "fitted_rate": report.fitted_rate}), out)
        else:
            lines = ["t,raw_error,extrapolated_error,flagged"]
            lines += [",".join(_csv_cell(row[key]) for key in
                               ("t", "raw_error", "extrapolated_error",
                                "flagged"))
                      for row in rows]
            _emit("\n".join(lines), out)


@main.command("ngm")
@click.option("--config", "config_path", default="-", show_default=True,
              help='JSON config path; "-" reads stdin.')
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_ngm(config_path, out):
    """Dump the built pair: F, V, F V^-1, eigenvalues and labels."""
    with _error_exits():
        cfg = _load_config(config_path)
        if "model" not in cfg:
            raise ConfigError("config", 'needs a "model" section')
        pair = _build_ngm(*_parse_model(cfg))
        product = matmul(pair.F, pair.V_inv)
        _emit(render_json({
            "labels": list(pair.labels),
            "f": pair.F.to_lists(),
            "v": pair.V.to_lists(),
            "ngm": product.to_lists(),
            "eigenvalues": [{"re": v.real, "im": v.imag}
                            for v in eigenvalues(product).values],
            "r0": r0(pair),
        }), out)


if __name__ == "__main__":
    main()
