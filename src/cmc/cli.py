"""Command-line interface.

Every subcommand reads measure DSL from its argument (or from a file when the
argument starts with ``@``) and writes one structured-text document to
standard output: ``key: value`` lines, nested blocks indented by two spaces,
keys in a fixed order.  Commands whose result is a single value (eval, gap,
ei-sum, encode, decode, metric is two lines) print it bare so the output can
be fed back into other commands.

Exit codes: 0 for a definite successful result, 1 when the underlying
operation returns Inconclusive or Failure, 2 for errors of any kind (syntax,
semantic, budget, domain).  Errors are themselves rendered as documents with
a machine-readable ``error:`` code line.

The environment variable ``CMC_DEFAULT_BUDGET`` overrides the default
splitting-search budget (65536); an explicit ``--budget`` flag wins.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import codec, dsl, kakutani, measures, orthogonality
from .bits import check_bitstring
from .errors import CmcError, Diagnostic, NotInCodingDomain


def _default_budget():
    raw = os.environ.get("CMC_DEFAULT_BUDGET")
    if raw is None:
        return codec.DEFAULT_BUDGET
    budget = int(raw)
    if budget <= 0:
        raise ValueError(f"CMC_DEFAULT_BUDGET must be positive, got {raw!r}")
    return budget


def _source(arg):
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as err:
            raise ValueError(f"cannot read {arg[1:]!r}: {err.strerror}") from None
    return arg


def _parse(text, parse=dsl.parse):
    """``parse(text)``; a Diagnostic is raised, not returned."""
    result = parse(text)
    if isinstance(result, Diagnostic):
        raise result
    return result


def _rational(text):
    """argparse type for a rational; ``1/0`` is rejected like ``abc``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _text(value):
    """``str(value)`` with Python's limit on int-to-str digits lifted, so an
    exact answer of any length prints; parsing keeps the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python before 3.10.7 has no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _render(items, indent=0):
    pad = "  " * indent
    lines = []
    for key, value in items:
        if isinstance(value, list):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_text(value)}")
    return lines


def _emit(items):
    sys.stdout.write("\n".join(_render(items)) + "\n")


def _cells_text(family):
    return " ".join(family.canonical())


def _cert_items(cert):
    return [
        ("epsilon", cert.epsilon),
        ("depth", cert.depth),
        ("mu_mass", cert.mu_mass),
        ("nu_mass", cert.nu_mass),
        ("cells", _cells_text(cert.cells)),
    ]


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the process exit code


def _cmd_eval(args):
    code = _parse(_source(args.measure))
    print(_text(measures.eval_cylinder(code, check_bitstring(args.bits))))
    return 0


def _cmd_encode(args):
    base = _parse(_source(args.measure))
    coded = codec.encode(base, _parse(args.payload, dsl.parse_payload), args.budget)
    print(dsl.print_measure(coded))
    return 0


def _cmd_decode(args):
    print(codec.decode(_parse(_source(args.measure)), args.k, args.budget))
    return 0


def _cmd_gap(args):
    mu, nu = _parse(_source(args.mu)), _parse(_source(args.nu))
    print(_text(orthogonality.gap(mu, nu, args.depth)))
    return 0


def _cmd_certify(args):
    result = orthogonality.ortho_certificate(
        _parse(_source(args.mu)), _parse(_source(args.nu)), args.epsilon, args.max_depth
    )
    if isinstance(result, orthogonality.OrthoCertificate):
        _emit([("result", "certificate")] + _cert_items(result))
        return 0
    _emit(
        [
            ("result", "inconclusive"),
            ("best_gap", result.best_gap),
            ("at_depth", result.at_depth),
            ("detail", result.detail or "no certificate within the depth bound"),
        ]
    )
    return 1


def _cmd_modulus(args):
    result = orthogonality.continuity_modulus(
        _parse(_source(args.mu)), args.epsilon, args.max_depth
    )
    if isinstance(result, orthogonality.Modulus):
        _emit([("result", "modulus"), ("n", result.n)])
        return 0
    if isinstance(result, orthogonality.AtomWitness):
        _emit(
            [
                ("result", "atom-witness"),
                ("prefix", result.prefix),
                ("epsilon", result.epsilon),
                ("mass", result.mass),
            ]
        )
        return 0
    _emit([("result", "inconclusive"), ("detail", result.detail)])
    return 1


def _cmd_refute_ac(args):
    mu, nu = _parse(_source(args.mu)), _parse(_source(args.nu))
    result = orthogonality.refute_abs_continuity(
        mu, nu, args.epsilon, args.stages, args.max_depth
    )
    if isinstance(result, orthogonality.RefutationWitness):
        items = [("result", "refutation"), ("epsilon", result.epsilon)]
        for index, (delta, family) in enumerate(result.stages, start=1):
            items.append(
                (
                    "stage",
                    [
                        ("index", index),
                        ("delta", delta),
                        ("cells", _cells_text(family)),
                    ],
                )
            )
        _emit(items)
        return 0
    _emit([("result", "inconclusive"), ("detail", result.detail)])
    return 1


def _cmd_ei_sum(args):
    x, y = (_parse(_source(arg), dsl.parse_pattern) for arg in (args.x, args.y))
    print(_text(kakutani.ei_partial_sum(x, y, args.N)))
    return 0


def _cmd_classify(args):
    x, y = (_parse(_source(arg), dsl.parse_pattern) for arg in (args.x, args.y))
    result = kakutani.classify_pair(x, y, args.budget)
    if isinstance(result, kakutani.EquivalentFiniteDifference):
        _emit([("result", "equivalent"), ("last_diff", result.last_diff)])
        return 0
    if isinstance(result, kakutani.OrthogonalEvidence):
        cert = result.cert
        _emit(
            [
                ("result", "orthogonal"),
                ("N", cert.N),
                ("partial_sum", cert.partial_sum),
                ("target", cert.target),
            ]
        )
        return 0
    _emit([("result", "inconclusive"), ("detail", result.detail)])
    return 1


def _cmd_hellinger(args):
    a, b = (_parse(_source(arg), dsl.parse_schedule) for arg in (args.a, args.b))
    report = kakutani.hellinger_partial(a, b, args.N, args.precision)
    lo, hi = report.sum_interval
    _emit(
        [
            ("N", report.N),
            ("lo", lo),
            ("hi", hi),
            ("precision_bits", report.precision_bits),
        ]
    )
    return 0


def _cmd_metric(args):
    f, g = _parse(_source(args.f)), _parse(_source(args.g))
    lo, hi = measures.metric_bracket(f, g, args.N)
    _emit([("lo", lo), ("hi", hi)])
    return 0


def _cmd_family_build(args):
    result = orthogonality.build_family(args.count, args.epsilon, args.max_depth)
    items = [
        ("result", "family" if result.failure is None else "partial"),
        ("count", len(result.measures)),
    ]
    for index, code in enumerate(result.measures):
        items.append(
            (
                "member",
                [("index", index), ("parameter_word", code.schedule.x.word)],
            )
        )
    for cert in result.certificates:
        items.append(("certificate", _cert_items(cert)))
    if result.failure is not None:
        for candidate, best_gap, at_depth in result.failure.best_gaps:
            items.append(
                (
                    "rejected",
                    [
                        ("parameter_word", getattr(candidate, "word", repr(candidate))),
                        ("best_gap", best_gap),
                        ("at_depth", at_depth),
                    ],
                )
            )
    _emit(items)
    return 0 if result.failure is None else 1


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cmc",
        description="Exact-rational measure codes on Cantor space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    budget_kw = dict(type=int, default=None, help="splitting-search budget")

    p = cmd("eval", _cmd_eval, help="cylinder mass as an exact rational")
    p.add_argument("measure")
    p.add_argument("bits")

    p = cmd("encode", _cmd_encode, help="stamp a payload into a measure's spine")
    p.add_argument("measure")
    p.add_argument("payload")
    p.add_argument("--budget", **budget_kw)

    p = cmd("decode", _cmd_decode, help="read payload bits off a measure's spine")
    p.add_argument("measure")
    p.add_argument("k", type=int)
    p.add_argument("--budget", **budget_kw)

    p = cmd("gap", _cmd_gap, help="depth-d total-variation gap")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("depth", type=int)

    p = cmd("certify", _cmd_certify, help="search for an orthogonality certificate")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("epsilon", type=_rational)
    p.add_argument("max_depth", type=int)

    p = cmd("modulus", _cmd_modulus, help="continuity modulus or atom witness")
    p.add_argument("mu")
    p.add_argument("epsilon", type=_rational)
    p.add_argument("max_depth", type=int)

    p = cmd("refute-ac", _cmd_refute_ac, help="refute absolute continuity")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("epsilon", type=_rational)
    p.add_argument("stages", type=int)
    p.add_argument("max_depth", type=int)

    p = cmd("ei-sum", _cmd_ei_sum, help="weighted difference partial sum")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("N", type=int)

    p = cmd("classify", _cmd_classify, help="equivalent / orthogonal / inconclusive")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("budget", type=int)

    p = cmd("hellinger", _cmd_hellinger, help="Hellinger-style partial sum enclosure")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("N", type=int)
    p.add_argument("precision", type=int)

    p = cmd("metric", _cmd_metric, help="code-metric bracket endpoints")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("N", type=int)

    family = sub.add_parser("family", help="orthogonal family construction")
    fsub = family.add_subparsers(dest="family_command", required=True)
    p = fsub.add_parser("build", help="iterated family extension transcript")
    p.set_defaults(fn=_cmd_family_build)
    p.add_argument("count", type=int)
    p.add_argument("epsilon", type=_rational)
    p.add_argument("max_depth", type=int)

    return parser


def _error_document(err):
    if isinstance(err, Diagnostic):
        return [
            ("error", err.code),
            ("line", err.line),
            ("column", err.column),
            ("expected", ", ".join(err.expected)),
            ("message", err.message),
        ]
    items = [("error", err.code if isinstance(err, CmcError) else "invalid-argument")]
    if isinstance(err, NotInCodingDomain):
        items += [("index", err.index), ("node", err.node)]
    items.append(("message", str(err)))
    return items


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget") and args.budget is None:
            args.budget = _default_budget()
        return args.fn(args)
    except (CmcError, ValueError, OverflowError) as err:
        _emit(_error_document(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
