"""Command-line front end.

Matrices travel as JSON documents with separate row-major real and imaginary
arrays (``{"dim": d, "re": [...], "im": [...]}``, plus ``"dims": [dA, dB]``
for factored states).  Numbers are printed with 12 significant digits at every
magnitude (zeros past the twelfth) and ``inf`` as the literal string ``inf``; a
failed ``suite --out`` run leaves an existing file as it was and creates none.
Exit codes: 0 success, 1 domain error, bad usage, an
unreadable input or unwritable output file, or an optimizer with no start
certified within ``--value-tol`` (its Frank-Wolfe gap, an upper bound on its
distance to the minimum), 2 suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .channels import random_density
from .condent import (
    OptimizerOptions,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    thm2_bounds,
)
from .errors import ConvergenceError, DomainError
from .fdiv import make_tsallis_f, quantum_f_divergence, quantum_f_divergence_eps_sweep
from .linalg import BipartiteState, DensityOperator, _factor_dims, _integer


def format_number(x: float) -> str:
    """12 significant digits in positional notation, trailing zeros kept, at every magnitude.

    Infinities print as the literal ``inf``; a NaN is a :class:`DomainError`.
    """
    if math.isnan(x):
        raise DomainError("result is not a number")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.00000000000"
    # x rounded to 12 significant digits, and the decimal places that leaves
    mantissa, _, exponent = f"{x:.11e}".partition("e")
    places = 11 - int(exponent)
    if places < 0:  # %f would print every digit of the binary value, not 12
        return mantissa.replace(".", "") + "0" * -places
    return f"{x:.{places}f}"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, and UnicodeDecodeError on a file not in UTF-8
        raise DomainError(f"cannot parse {path}: {exc}") from exc


def _write_text(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def parse_matrix_file(path: str):
    """Load a matrix document as a DensityOperator, or a BipartiteState if it has dims."""
    doc = _load_json(path)
    try:
        dim = doc["dim"]
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path}: expected fields dim, re, im ({exc})") from exc
    try:
        dim = _integer(dim, "dim", least=1)
        if re.shape != (dim * dim,) or im.shape != (dim * dim,):
            raise DomainError(f"re and im must be flat lists of dim^2 = {dim * dim} entries")
        with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j; as_matrix refuses it
            matrix = (re + 1j * im).reshape(dim, dim)
        if "dims" in doc:
            return BipartiteState(matrix, doc["dims"])
        return DensityOperator(matrix)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _factored_state(path: str) -> BipartiteState:
    """The factored state in ``path``: a file without ``dims`` is refused."""
    state = parse_matrix_file(path)
    if not isinstance(state, BipartiteState):
        raise DomainError(f"{path}: a conditional entropy needs a state file with a dims field")
    return state


def write_matrix_file(path: str, matrix: np.ndarray, dims=None) -> None:
    doc = {
        "dim": int(matrix.shape[0]),
        "re": matrix.real.ravel().tolist(),
        "im": matrix.imag.ravel().tolist(),
    }
    if dims is not None:
        doc["dims"] = [int(d) for d in dims]
    _write_text(path, json.dumps(doc))


def _family_alpha(family: str, alpha: float | None) -> float:
    """The power-family order a ``--family`` names: 1 for ``kl``, else ``--alpha``."""
    if family == "kl":
        return 1.0
    if alpha is None:
        raise DomainError(f"--alpha is required for family {family!r}")
    return alpha


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_div = sub.add_parser("divergence", help="divergence of two states")
    p_div.add_argument("--a", required=True, metavar="FILE")
    p_div.add_argument("--b", required=True, metavar="FILE")
    p_div.add_argument("--family", required=True, choices=("tsallis", "kl"))
    p_div.add_argument("--alpha", type=float)
    p_div.add_argument(
        "--eps-sweep",
        action="store_true",
        help="regularized sweep with extrapolation instead of the spectral form",
    )

    p_ce = sub.add_parser("condent", help="conditional entropy of a factored state")
    p_ce.add_argument("--state", required=True, metavar="FILE")
    p_ce.add_argument("--family", required=True, choices=("tsallis", "kl"))
    p_ce.add_argument("--alpha", type=float)
    p_ce.add_argument(
        "--method",
        choices=("optimize", "closed"),
        default="closed",
        help="closed form (default) or direct optimization",
    )
    defaults = OptimizerOptions()
    p_ce.add_argument(
        "--starts",
        type=int,
        default=defaults.starts,
        help="1 or 2: start 0 is the maximally mixed state, start 1 the conditioning marginal",
    )
    p_ce.add_argument("--value-tol", type=float, default=defaults.value_tol)
    p_ce.add_argument("--max-iters", type=int, default=defaults.max_iters)

    p_b = sub.add_parser("bounds", help="two-sided conditional entropy bounds")
    p_b.add_argument("--state", required=True, metavar="FILE")
    p_b.add_argument("--alpha", type=float, required=True)

    p_s = sub.add_parser("suite", help="run the property-test suite")
    p_s.add_argument("--filter", action="append", metavar="ID", help="run only these ids")
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p_r = sub.add_parser("random", help="generate a seeded random state")
    p_r.add_argument("kind", choices=("state",))
    p_r.add_argument("--dims", type=int, nargs="+", required=True, help="d or factors")
    p_r.add_argument("--rank", type=int, help="state rank (default: full)")
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--out", required=True, metavar="FILE")
    return parser


def _cmd_divergence(args) -> int:
    a = parse_matrix_file(args.a)
    b = parse_matrix_file(args.b)
    f = make_tsallis_f(_family_alpha(args.family, args.alpha))
    if args.eps_sweep:
        _, value = quantum_f_divergence_eps_sweep(a, b, f)
    else:
        value = quantum_f_divergence(a, b, f)
    print(format_number(value))
    return 0


def _cmd_condent(args) -> int:
    opts = OptimizerOptions(starts=args.starts, value_tol=args.value_tol, max_iters=args.max_iters)
    state = _factored_state(args.state)
    alpha = _family_alpha(args.family, args.alpha)
    f = make_tsallis_f(alpha)
    if args.method == "closed":
        value, _ = conditional_entropy_tsallis_closed(state, alpha)
    else:
        value = conditional_entropy_optimize(state, f, opts).value
    print(format_number(value))
    return 0


def _cmd_bounds(args) -> int:
    lower, upper = thm2_bounds(_factored_state(args.state), make_tsallis_f(args.alpha))
    print(f"{format_number(lower)} {format_number(upper)}")
    return 0


def _cmd_suite(args) -> int:
    from .propsuite import PropertyConfig, run_suite

    # appending nothing checks the path before any property runs and keeps an existing file
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        _write_text(args.out, "", mode="a")
    try:
        reports = run_suite(PropertyConfig(seed=args.seed), properties=args.filter)
    except BaseException:
        if created:
            os.remove(args.out)  # a failed run creates no file
        raise
    payload = json.dumps([r.to_dict() for r in reports], indent=2)
    if args.out:
        _write_text(args.out, payload + "\n")
    else:
        print(payload)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status} {r.property_id}: trials={r.trials} violations={r.violations} "
            f"worst_margin={r.worst_margin:.3e}",
            file=sys.stderr,
        )
    return 0 if all(r.passed for r in reports) else 2


def _cmd_random(args) -> int:
    dims = _factor_dims(args.dims)
    if not 1 <= len(dims) <= 3:
        raise DomainError("random state needs 1 to 3 dims")
    d = math.prod(dims)
    rank = args.rank if args.rank is not None else d
    rho = random_density(d, rank, args.seed)
    write_matrix_file(args.out, rho.entries, dims=dims if len(dims) > 1 else None)
    return 0


_COMMANDS = {
    "divergence": _cmd_divergence,
    "condent": _cmd_condent,
    "bounds": _cmd_bounds,
    "suite": _cmd_suite,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, ConvergenceError) as exc:
        print(f"qfdiv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
