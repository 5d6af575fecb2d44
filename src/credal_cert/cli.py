"""Command-line interface.

Subcommands: certify (one-shot certificate), monitor (NDJSON over a batch
stream), simulate (synthetic validation experiments), calibrate (permutation
shift radius), norm (RKHS loss-norm estimate), geometry (anchor distortion
diagnostics).

Exit codes: 0 success, 1 input or parse errors, 2 numerical errors,
3 simulate experiment checks failed.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import InputError, NumericalError
from .geometry import geodesic_distortion, rare_class_report
from .io import (
    certificate_text,
    file_digest,
    load_config,
    parse_feature_rows,
    read_features,
    read_labels,
    read_losses,
    record_text,
)
from .mmd import mmd2_unbiased, permutation_calibrate
from .pipeline import certificate_body, prepare_source, resolve_kernel
from .rkhs_norm import estimate_rkhs_norm
from .simulate import format_report, load_experiment

_GAMMA_HELP = (
    "'median' or a positive number; median sets gamma = 1 / (2 * median "
    "squared pairwise distance) over the pooled distinct pairs of the inputs"
)

_CERTIFY_EPILOG = """\
certificate fields:
  gamma, gamma_source          kernel bandwidth and how it was chosen
  m, n                         source / target sample sizes
  mmd2, mmd, mmd_width         unbiased shift estimate and its width at delta/2
  empirical_risk               mean source loss
  kl, n_labeled, delta         posterior complexity inputs
  l_h, l_h_source              loss-norm bound (plus ridge_lambda,
                               residual_rms when estimated)
  complexity_term              statistical term of the finite-sample bound
  shift_penalty                l_h * (mmd + mmd_width)
  upper_risk, lower_risk       certified target-risk bounds (bound_kind)
  epsilon, epsilon_source      shift radius (plus calibration_* when
                               permutation-calibrated)
  interval_lower/upper/width   risk-imprecision interval at the radius
  r_max, verdict               adaptation decision (when r_max configured)
  alpha0, coverage_increment,  adaptive conformal level (when alpha0
  adaptive_alpha               configured)
  *_sha256                     input digests
  tool_version                 package version
"""

_MONITOR_EPILOG = """\
stream protocol:
  Batches are CSV rows separated by lines containing '---'; end of stream
  flushes the last batch. Groups with no data rows are skipped; a batch that
  fails to parse, has the wrong width, or pools fewer than 2 rows emits a
  {"batch_seq": i, "error": ...} record and processing continues. Parsed
  rows enter the --window pool even when a later step fails. One compact
  JSON record per batch; exit is nonzero only for source-side errors.
"""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _gamma_arg(text: str) -> float | None:
    # None selects the median heuristic
    if text == "median":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'median' or a number, got {text!r}")


def _digests(args, *names: str) -> dict:
    """{name}_sha256 of the input file each named argument points to."""
    return {f"{name}_sha256": file_digest(getattr(args, name)) for name in names}


def _stamp(record: dict, digests: dict) -> None:
    """Append the input digests, then tool_version, as the closing fields."""
    record.update(digests)
    record["tool_version"] = __version__


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_certify(args) -> int:
    cfg = load_config(args.config)
    Xs = read_features(args.source_features)
    losses = read_losses(args.source_losses)
    Xt = read_features(args.target_features)
    state = prepare_source(cfg, Xs, losses, target_for_bandwidth=Xt)
    seed = cfg.seed if cfg.seed is not None else args.seed
    cert = certificate_body(state, Xt, cfg, seed=seed, clamp_risk=args.clamp_risk)
    _stamp(
        cert,
        _digests(
            args, "source_features", "source_losses", "target_features", "config"
        ),
    )
    _emit(certificate_text(cert), args.out)
    return 0


def _batches(stream):
    """Yield trimmed (lineno, line) groups separated by '---' lines."""
    pending: list[tuple[int, str]] = []

    def trimmed():
        while pending and pending[0][1].strip() == "":
            pending.pop(0)
        while pending and pending[-1][1].strip() == "":
            pending.pop()
        return pending

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line.strip() == "---":
            if trimmed():
                yield pending
            pending = []
        else:
            pending.append((lineno, line))
    if trimmed():
        yield pending


def _cmd_monitor(args) -> int:
    cfg = load_config(args.config)
    Xs = read_features(args.source_features)
    losses = read_losses(args.source_losses)
    state = prepare_source(cfg, Xs, losses)
    seed = cfg.seed if cfg.seed is not None else args.seed
    digests = _digests(args, "source_features", "source_losses", "config")
    dim = state.features.shape[1]
    window = deque(maxlen=args.window or 1)

    if args.target_stream == "-":
        stream = sys.stdin
        close_stream = False
    else:
        try:
            stream = open(args.target_stream, "r")
        except OSError as exc:
            raise InputError(
                f"{args.target_stream}: cannot read stream: {exc}"
            ) from exc
        close_stream = True
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for batch_seq, lines in enumerate(_batches(stream)):
            try:
                batch = parse_feature_rows(lines, f"target stream batch {batch_seq}")
                if batch.shape[1] != dim:
                    raise InputError(
                        f"target stream batch {batch_seq}: expected {dim} "
                        f"columns to match the source, got {batch.shape[1]}"
                    )
                window.append(batch)
                pooled = np.vstack(window) if len(window) > 1 else window[0]
                batch_seed = int(
                    np.random.SeedSequence((seed, batch_seq)).generate_state(
                        1, np.uint64
                    )[0]
                )
                record: dict = {"batch_seq": batch_seq}
                record.update(
                    certificate_body(
                        state,
                        pooled,
                        cfg,
                        seed=batch_seed,
                        clamp_risk=args.clamp_risk,
                    )
                )
                _stamp(record, digests)
                text = record_text(record)
            except (InputError, NumericalError) as exc:
                text = record_text({"batch_seq": batch_seq, "error": str(exc)})
            out.write(text)
            out.flush()
    finally:
        if close_stream:
            stream.close()
        if args.out is not None:
            out.close()
    return 0


def _cmd_simulate(args) -> int:
    experiment = load_experiment(args.scenario_config, default_seed=args.seed)
    rows = experiment.run()
    _emit(format_report(rows), args.out)
    return 0 if all(r.passed for r in rows) else 3


def _cmd_calibrate(args) -> int:
    Xs = read_features(args.source_features)
    Xt = read_features(args.target_features)
    spec = resolve_kernel(args.gamma, Xs, Xt)
    result = permutation_calibrate(
        Xs,
        Xt,
        spec,
        num_permutations=args.num_permutations,
        alpha=args.alpha,
        seed=args.seed,
    )
    est = mmd2_unbiased(Xs, Xt, spec)
    payload = {
        "gamma": spec.gamma,
        "gamma_source": spec.source.value,
        "m": est.m,
        "n": est.n,
        "mmd2": est.mmd2,
        "mmd": est.mmd,
        **asdict(result),
    }
    _emit(certificate_text(payload), args.out)
    return 0


def _cmd_norm(args) -> int:
    X = read_features(args.features)
    losses = read_losses(args.losses)
    spec = resolve_kernel(args.gamma, X)
    est = estimate_rkhs_norm(X, losses, spec, ridge_lambda=args.ridge_lambda)
    payload = {
        "gamma": spec.gamma,
        "gamma_source": spec.source.value,
        **asdict(est),
    }
    _emit(certificate_text(payload), args.out)
    return 0


def _cmd_geometry(args) -> int:
    Xs = read_features(args.source_features)
    Xt = read_features(args.target_features)
    anchors = read_features(args.anchors)
    spec = resolve_kernel(args.gamma, Xs, Xt)
    payload: dict = {
        "gamma": spec.gamma,
        "gamma_source": spec.source.value,
        "c_w": args.c_w,
    }
    if args.labels is not None:
        labels = read_labels(args.labels)
        summaries = rare_class_report(anchors, labels, Xs, Xt, spec, c_w=args.c_w)
        payload["classes"] = [asdict(s) for s in summaries]
    else:
        reports = geodesic_distortion(anchors, Xs, Xt, spec, c_w=args.c_w)
        payload["anchors"] = [asdict(r) for r in reports]
    _emit(certificate_text(payload), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="credal-cert",
        description=(
            "Distribution-shift risk certificates: kernel shift estimates, "
            "PAC-style target-risk bounds, and credal risk intervals."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--out",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    seeded = _Parser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=_seed_arg,
        default=0,
        help="base RNG seed (default 0; a config 'seed' key takes precedence)",
    )
    clamped = _Parser(add_help=False)
    clamped.add_argument(
        "--clamp-risk",
        action="store_true",
        help=(
            "clamp serialized risk fields into [0, 1] for display; "
            "breaks the reported interval-width identity"
        ),
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    certify = sub.add_parser(
        "certify",
        parents=[common, seeded, clamped],
        help="emit a shift-risk certificate for one target sample",
        epilog=_CERTIFY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    certify.add_argument("source_features", help="CSV of source feature rows")
    certify.add_argument("source_losses", help="CSV with one loss per source row")
    certify.add_argument("target_features", help="CSV of target feature rows")
    certify.add_argument("config", help="JSON certification config")
    certify.set_defaults(handler=_cmd_certify)

    monitor = sub.add_parser(
        "monitor",
        parents=[common, seeded, clamped],
        help="emit NDJSON certificates over a '---'-delimited batch stream",
        epilog=_MONITOR_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    monitor.add_argument(
        "target_stream", help="batch stream file, or '-' for stdin"
    )
    monitor.add_argument("source_features", help="CSV of source feature rows")
    monitor.add_argument("source_losses", help="CSV with one loss per source row")
    monitor.add_argument("config", help="JSON certification config")
    monitor.add_argument(
        "--window",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evaluate the pooled rows of the last N parsed batches",
    )
    monitor.set_defaults(handler=_cmd_monitor)

    simulate = sub.add_parser(
        "simulate",
        parents=[common, seeded],
        help="run a synthetic validation experiment from a JSON config",
    )
    simulate.add_argument(
        "scenario_config",
        help=(
            "JSON with 'experiment' (coverage | unbiasedness | concentration "
            "| geometry), 'trials', 'scenario', and per-experiment keys"
        ),
    )
    simulate.set_defaults(handler=_cmd_simulate)

    calibrate = sub.add_parser(
        "calibrate",
        parents=[common, seeded],
        help="permutation-calibrate a shift radius for two samples",
    )
    calibrate.add_argument("source_features", help="CSV of source feature rows")
    calibrate.add_argument("target_features", help="CSV of target feature rows")
    calibrate.add_argument(
        "--gamma", type=_gamma_arg, default="median", help=_GAMMA_HELP
    )
    calibrate.add_argument(
        "--num-permutations", type=_positive_int, default=1000, metavar="P"
    )
    calibrate.add_argument("--alpha", type=float, default=0.05)
    calibrate.set_defaults(handler=_cmd_calibrate)

    norm = sub.add_parser(
        "norm",
        parents=[common],
        help="estimate the loss-function norm by kernel ridge regression",
    )
    norm.add_argument("features", help="CSV of feature rows")
    norm.add_argument("losses", help="CSV with one loss per row")
    norm.add_argument("--gamma", type=_gamma_arg, default="median", help=_GAMMA_HELP)
    norm.add_argument(
        "--ridge-lambda",
        type=float,
        default=None,
        help="ridge regularizer (default: 1e-6 * mean kernel diagonal)",
    )
    norm.set_defaults(handler=_cmd_norm)

    geometry = sub.add_parser(
        "geometry",
        parents=[common],
        help="anchor-point distortion diagnostics between two samples",
    )
    geometry.add_argument("source_features", help="CSV of source feature rows")
    geometry.add_argument("target_features", help="CSV of target feature rows")
    geometry.add_argument(
        "--anchors", required=True, help="CSV of anchor feature rows"
    )
    geometry.add_argument(
        "--labels",
        default=None,
        help="one class label per anchor row; groups the report by class",
    )
    geometry.add_argument(
        "--gamma", type=_gamma_arg, default="median", help=_GAMMA_HELP
    )
    geometry.add_argument("--c-w", type=float, default=1.0, dest="c_w")
    geometry.set_defaults(handler=_cmd_geometry)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
