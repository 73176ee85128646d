"""Command line interface.

Subcommands: certify (verdict for a frame file), rho (stability radius of a
retrievable frame), construct (write a named frame family to a file),
experiment (perturbation sweep or two frame path), bounds (cardinality
landscape for a dimension).

Exit codes: 0 Retrievable / success, 1 NotRetrievable or a non retrievable
input where retrievability was required, 2 Inconclusive, 64 usage, IO, or
malformed input.

certify routes by the frame file's ``field`` label: a real frame goes to the
complement property, a complex one to the spectral margin.  To certify a
real frame treated over C, label it complex.  rho and experiment perturb
work only over C, so they refuse a real-labelled frame with n >= 2 as a
usage error.  Every JSON report carries the parsed command line, without
--output, as its ``config`` envelope; a report dataclass is written as its
fields (``_json_default``).

Each command imports the library modules it runs inside its handler, so a
process loads only those: ``bounds`` loads no numpy, and ``construct``
loads neither the certifier nor the stability module.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ._version import __version__
from .errors import FramecertError, NotRetrievableInput

__all__ = ["build_parser", "main"]

EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: an int >= 0, the seeds numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framecert",
                     description="Certify phase retrievability of finite frames.")
    parser.add_argument("--version", action="version", version=f"framecert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_seed, default=42,
                       help="rng seed, >= 0 (default %(default)s)")

    def add_solver(p):
        p.add_argument("--starts", type=int, default=64)

    def add_output(p):
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("certify", help="certify a frame file")
    p.add_argument("--frame", required=True, help="frame JSON file")
    add_solver(p)
    add_seed(p)
    add_output(p)

    p = sub.add_parser("rho", help="stability radius of a retrievable frame")
    p.add_argument("--frame", required=True)
    add_solver(p)
    add_seed(p)
    add_output(p)

    p = sub.add_parser("construct", help="write a named frame family")
    p.add_argument("--family", required=True,
                   choices=["bodmann-hammen", "r3-example", "trivial", "random"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--angle-variant", choices=["two_pi", "verbatim"], default="two_pi")
    p.add_argument("--strict-angles", action="store_true")
    add_seed(p)
    add_output(p)

    p = sub.add_parser("experiment", help="perturbation sweep or two frame path")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("perturb", help="certify random perturbations of a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--radius-fraction", type=float, default=0.99)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_solver(p)
    add_seed(p)
    add_output(p)
    p = kinds.add_parser("path", help="lower frame bound along a path between two frames")
    p.add_argument("--frame", required=True, help="start frame")
    p.add_argument("--frame2", required=True, help="end frame")
    p.add_argument("--grid", type=int, default=21, help="path sample count")
    add_output(p)

    p = sub.add_parser("bounds", help="cardinality bounds for dimension n")
    p.add_argument("--n", type=int, required=True)
    add_output(p)

    return parser


def _emit(text: str, output: str | None) -> None:
    """Write text, ending in one newline, to stdout or to the output file."""
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_default(obj):
    """``json.dumps`` hook: a dataclass becomes its fields, a numpy array or
    scalar its Python value.  numpy is looked up only if already loaded, so
    ``bounds`` still runs without it."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _wrap(args: argparse.Namespace, report: object) -> str:
    """The JSON report with the command line that produced it, minus
    --output, as its ``config`` envelope."""
    config = {key: value for key, value in vars(args).items() if key != "output"}
    return json.dumps(
        {"version": __version__, "config": config, "report": report},
        indent=2, default=_json_default,
    )


def _verdict_exit(verdict: str) -> int:
    from .certify import VERDICT_INCONCLUSIVE, VERDICT_NOT_RETRIEVABLE, VERDICT_RETRIEVABLE

    return {VERDICT_RETRIEVABLE: 0, VERDICT_NOT_RETRIEVABLE: 1, VERDICT_INCONCLUSIVE: 2}[verdict]


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certify import certify_complex, certify_real
    from .frameio import load_frame

    fr = load_frame(args.frame)
    if fr.field == "real":
        report = certify_real(fr)
    else:
        report = certify_complex(fr, starts=args.starts, seed=args.seed)
    _emit(_wrap(args, report), args.output)
    return _verdict_exit(report.verdict)


def _require_complex(fr, path: str, command: str) -> None:
    """Refuse a real-labelled frame for a ``command`` that treats its frame
    over C.  For n >= 2 no real frame is retrievable over C (x = e1 + i e2
    and its conjugate have equal magnitudes), so the answer would differ
    from ``certify``'s; for n = 1 both fields ask for one nonzero vector."""
    if fr.field == "real" and fr.n >= 2:
        raise FramecertError(f"{command} works over C, but {path} is labelled real; "
                             "label it complex to treat it over C")


def _cmd_rho(args: argparse.Namespace) -> int:
    from .certify import certify_complex
    from .frameio import load_frame

    fr = load_frame(args.frame)
    _require_complex(fr, args.frame, "rho")
    report = certify_complex(fr, starts=args.starts, seed=args.seed)
    code = _verdict_exit(report.verdict)
    radius = None
    if code == 0:
        from .stability import stability_radius

        radius = stability_radius(fr, report.a0)
    _emit(_wrap(args, {"certification": report, "stability_radius": radius}), args.output)
    return code


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import (
        BodmannHammenParams,
        bodmann_hammen,
        r3_example,
        random_frame,
        trivial_non_retrievable,
    )
    from .frameio import frame_to_dict

    if args.family == "bodmann-hammen":
        params = BodmannHammenParams(n=args.n, a=args.a, angle_variant=args.angle_variant)
        fr = bodmann_hammen(params, strict=args.strict_angles)
    elif args.family == "r3-example":
        fr = r3_example()
    elif args.family == "trivial":
        m = args.m if args.m is not None else 2 * args.n
        fr = trivial_non_retrievable(args.n, m)
    else:
        m = args.m if args.m is not None else 4 * args.n - 4
        fr = random_frame(args.n, m, seed=args.seed)
    _emit(json.dumps(frame_to_dict(fr), indent=2), args.output)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .frameio import load_frame

    fr = load_frame(args.frame)
    if args.kind == "perturb":
        from .stability import stability_experiment

        _require_complex(fr, args.frame, "experiment perturb")
        report = stability_experiment(
            fr, trials=args.trials, radius_fraction=args.radius_fraction,
            seed=args.seed, starts=args.starts,
        )
        if args.format == "csv":
            _emit(report.to_csv(), args.output)
        else:
            _emit(_wrap(args, report), args.output)
        return 0
    if args.grid < 2:
        raise ValueError(f"grid must be >= 2, got {args.grid}")
    import numpy as np

    from .constructions import connect_frames, path_eval
    from .core import frame_bounds

    fr2 = load_frame(args.frame2)
    path = connect_frames(fr, fr2)
    ts = [(-1.0 + 2.0 * i / (args.grid - 1)) for i in range(args.grid)]
    lower = [frame_bounds(path_eval(path, t)).A for t in ts]
    start_exact = bool(np.array_equal(path_eval(path, -1.0).vectors, fr.vectors))
    end_exact = bool(np.array_equal(path_eval(path, 1.0).vectors, fr2.vectors))
    report = {
        "index_set": list(path.index_set),
        "complement": list(path.complement),
        "grid": args.grid,
        "t_values": ts,
        "lower_bounds": lower,
        "min_lower_bound": min(lower),
        "endpoints_exact": {"start": start_exact, "end": end_exact},
    }
    _emit(_wrap(args, report), args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import hmw_lower_bound

    bounds = hmw_lower_bound(args.n)
    _emit(_wrap(args, bounds), args.output)
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "rho": _cmd_rho,
    "construct": _cmd_construct,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except NotRetrievableInput as exc:
        print(f"framecert: {exc}", file=sys.stderr)
        return 1
    except (FramecertError, OSError, ValueError) as exc:
        print(f"framecert: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
