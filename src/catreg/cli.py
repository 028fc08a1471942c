"""Command-line interface.

Subcommands: ingest, fit, pipeline, predict, crossval, compare, backfire.
Global flags (given after the subcommand): --config, --seed, --output,
--format {json,table}. The seed defaults to 42, drives fold shuffling only
and is echoed in every payload. Exit codes: 0 success, 1 validation failure,
2 numerical failure, 3 I/O failure. A statistic is null only when undefined
(adjusted R^2 at n <= df + 1, a collapsed predictor's p-value); any other NaN
or infinity in a payload exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .data import dataset_to_json, load_dataset, save_dataset
from .errors import NumericalError, ValidationError, encode_json, json_object, parse_json, read_json
from .evaluate import METHODS, MRE_SCALES, MethodConfigs, crossval
from .ingest import backfire, ingest_dataset, load_gearing, load_schema
from .pipeline import compare_baseline, load_model, predict, run_pipeline, save_model
from .scaling import CatregConfig, catreg_fit
from .stepwise import StepwiseConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for numerical
    # failures here, so surface usage problems as validation errors instead
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    # each subcommand takes one of these three parents and declares only its own flags
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--seed", type=int, default=42, help="seed for fold shuffling (default 42)")
    common.add_argument("--output", metavar="PATH", help="write the payload here instead of stdout")
    common.add_argument("--format", choices=("json", "table"), default="json", help="payload rendering")
    data = _Parser(add_help=False, parents=[common])
    data.add_argument("--data", required=True, metavar="PATH")
    folds = _Parser(add_help=False, parents=[data])
    folds.add_argument("--k", required=True, type=int)
    folds.add_argument("--mre-scale", choices=MRE_SCALES, default=None)

    parser = _Parser(prog="catreg", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="responses CSV -> canonical dataset JSON")
    p.add_argument("--responses", required=True, metavar="CSV")
    p.add_argument("--gearing", required=True, metavar="JSON")
    p.add_argument("--schema", metavar="JSON", help="scaling-level overrides")
    p.add_argument("--outlier-zmax", type=float, default=None)
    p.add_argument("--data-out", metavar="PATH", help="where to write the dataset file")

    p = sub.add_parser("fit", parents=[data], help="one optimal-scaling regression fit")
    p.add_argument("--predictors", metavar="A,B,C", help="subset of predictors, comma-separated")

    p = sub.add_parser("pipeline", parents=[data], help="iterate quantify + select to a stable model")
    p.add_argument("--model-out", metavar="PATH", help="where to write the model file")

    p = sub.add_parser("predict", parents=[common], help="evaluate a saved model on raw inputs")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--inputs", required=True, metavar="JSON", help="inline JSON object or a path to one")

    p = sub.add_parser("crossval", parents=[folds], help="k-fold MMRE for one method")
    p.add_argument("--method", required=True, choices=METHODS)

    sub.add_parser("compare", parents=[folds], help="paired k-fold baseline vs pipeline report")

    p = sub.add_parser("backfire", parents=[common], help="source lines -> function points")
    p.add_argument("--sloc", required=True, metavar="JSON", help="inline JSON object or a path to one")
    p.add_argument("--gearing", required=True, metavar="JSON")

    return parser


def _check_seed(seed: int) -> int:
    if not (0 <= seed < 2**64):
        raise ValidationError("--seed must be an unsigned 64-bit integer")
    return seed


def _load_json_arg(text: str):
    """Accept either inline JSON (starts with '{' or '[') or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        try:
            return parse_json(stripped)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid inline JSON: {exc}") from None
    return read_json(text)


_CONFIG_SECTIONS = {
    "catreg": {f.name for f in dataclasses.fields(CatregConfig)},
    "stepwise": {f.name for f in dataclasses.fields(StepwiseConfig)},
    "pipeline": {"max_rounds"},
    "evaluation": {"mre_scale"},
}


def _load_configs(path: str | None) -> MethodConfigs:
    raw = {}
    if path is not None:
        raw = json_object(read_json(path), _CONFIG_SECTIONS, "configuration file")
        for section, keys in _CONFIG_SECTIONS.items():
            json_object(raw.get(section, {}), keys, f"configuration section '{section}'")
    return MethodConfigs(
        catreg=CatregConfig(**raw.get("catreg", {})),
        stepwise=StepwiseConfig(**raw.get("stepwise", {})),
        **raw.get("pipeline", {}),
        **raw.get("evaluation", {}),
    )


def _kv_lines(payload, prefix="") -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_kv_lines(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _emit(payload: dict, args, table_text: str | None = None) -> None:
    payload = {"seed": args.seed, **payload}
    if args.format == "table":
        encode_json(payload, indent=None)  # the JSON format's strictness check
        text = table_text if table_text is not None else "\n".join(_kv_lines(payload))
    else:
        text = encode_json(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fit_payload(cfit) -> dict:
    return {
        "predictors": list(cfit.predictors),
        "n": cfit.n,
        "r2": cfit.r2,
        "adjusted_r2": None if math.isnan(cfit.adj_r2) else cfit.adj_r2,
        "converged": cfit.converged,
        "iterations": cfit.iterations,
        "r2_trace": list(cfit.r2_trace),
        "coefficients": dict(cfit.coef),
        "p_values": {k: None if k in cfit.degenerate else p for k, p in cfit.pvalues.items()},
        "quantifications": {
            "categorical": {
                name: dict(mapping)
                for name, mapping in cfit.quantifications.categorical.items()
            },
            "numeric": {
                name: {"mean": mean, "scale": scale}
                for name, (mean, scale) in cfit.quantifications.numeric.items()
            },
        },
        "degenerate": list(cfit.degenerate),
        "diagnostics": list(cfit.diagnostics),
    }


def _fit_table(cfit, seed: int) -> str:
    def text(value: float, spec: str) -> str:
        return "n/a" if math.isnan(value) else format(value, spec)

    lines = [
        f"optimal-scaling fit (seed {seed})",
        f"n = {cfit.n}, R^2 = {cfit.r2:.4f}, adjusted R^2 = {text(cfit.adj_r2, '.4f')}, "
        f"iterations = {cfit.iterations}, converged = {cfit.converged}",
        "",
        "predictor        coefficient    p-value",
    ]
    for name in cfit.predictors:
        lines.append(f"{name:<16} {cfit.coef[name]:>11.4f}    {text(cfit.pvalues[name], '.4g')}")
    for name, mapping in cfit.quantifications.categorical.items():
        pairs = ", ".join(f"{cat}: {val:.4f}" for cat, val in mapping.items())
        lines.append(f"quantification {name}: {pairs}")
    for note in cfit.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _crossval_table(evaluation) -> str:
    lines = [
        f"{evaluation.method} MMRE by fold ({evaluation.mre_scale} scale, "
        f"k={evaluation.k}, seed={evaluation.seed})",
        "fold    mmre      n_test  excluded",
    ]
    for f in evaluation.folds:
        lines.append(
            f"{f.fold + 1:<7} {f.mmre_value:<9.4f} {f.n_test:<7} {f.n_excluded}"
        )
    lines.append(f"average {evaluation.average:.4f}")
    return "\n".join(lines)


def _cmd_ingest(args, _configs) -> None:
    gearing = load_gearing(args.gearing)
    schema = load_schema(args.schema) if args.schema else None
    dataset, removals = ingest_dataset(
        args.responses, gearing, schema=schema, outlier_zmax=args.outlier_zmax
    )
    payload = {
        "rows_kept": dataset.n,
        "rows_removed": len(removals),
        "removals": dict(sorted(removals.items())),
        "data_out": args.data_out,
    }
    if args.data_out:
        save_dataset(dataset, args.data_out)
    else:
        payload["dataset"] = dataset_to_json(dataset)
    _emit(payload, args)


def _cmd_fit(args, configs: MethodConfigs) -> None:
    dataset = load_dataset(args.data)
    predictors = None
    if args.predictors:
        predictors = [name.strip() for name in args.predictors.split(",") if name.strip()]
    cfit = catreg_fit(dataset, predictors, configs.catreg)
    _emit(_fit_payload(cfit), args, _fit_table(cfit, args.seed))


def _cmd_pipeline(args, configs: MethodConfigs) -> None:
    dataset = load_dataset(args.data)
    result = run_pipeline(
        dataset,
        catreg_config=configs.catreg,
        stepwise_config=configs.stepwise,
        max_rounds=configs.max_rounds,
    )
    payload = {
        "converged": result.converged,
        "empty_model": result.empty_model,
        "rounds": [
            {
                "round": r.index,
                "predictors": list(r.predictors),
                "catreg_r2": r.catreg_r2,
                "catreg_adjusted_r2": None if math.isnan(r.catreg_adj_r2) else r.catreg_adj_r2,
                "selected": list(r.selected),
                "events": [
                    {"step": e.step, "variable": e.variable, "action": e.action,
                     "p_value": e.pvalue}
                    for e in r.trace.events
                ],
                "diagnostics": list(r.trace.diagnostics),
            }
            for r in result.rounds
        ],
        "model": result.model.to_dict() if result.model else None,
        "model_out": args.model_out,
    }
    if args.model_out:
        if result.model is None:
            raise ValidationError("selection came up empty; there is no model to write")
        save_model(result.model, args.model_out)
    _emit(payload, args)


def _cmd_predict(args, _configs) -> None:
    model = load_model(args.model)
    inputs = _load_json_arg(args.inputs)
    if not isinstance(inputs, dict):
        raise ValidationError("--inputs must hold a JSON object")
    _emit(predict(model, inputs), args)


def _cmd_crossval(args, configs: MethodConfigs) -> None:
    dataset = load_dataset(args.data)
    evaluation = crossval(dataset, args.k, args.seed, args.method, configs)
    _emit(evaluation.as_dict(), args, _crossval_table(evaluation))


def _cmd_compare(args, configs: MethodConfigs) -> None:
    dataset = load_dataset(args.data)
    report = compare_baseline(dataset, args.k, args.seed, configs)
    _emit(report.as_dict(), args, report.as_table())


def _cmd_backfire(args, _configs) -> None:
    gearing = load_gearing(args.gearing)
    sloc = _load_json_arg(args.sloc)
    if not isinstance(sloc, dict):
        raise ValidationError("--sloc must hold a JSON object of language -> lines")
    _emit({"function_points": backfire(sloc, gearing)}, args)


_COMMANDS = {
    "ingest": _cmd_ingest, "fit": _cmd_fit, "pipeline": _cmd_pipeline, "predict": _cmd_predict,
    "crossval": _cmd_crossval, "compare": _cmd_compare, "backfire": _cmd_backfire,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_seed(args.seed)
        configs = _load_configs(args.config)
        scale = getattr(args, "mre_scale", None)
        if scale is not None:
            configs = dataclasses.replace(configs, mre_scale=scale)
        _COMMANDS[args.command](args, configs)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: malformed input ({exc})", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
