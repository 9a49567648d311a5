"""Command-line interface.

Every subcommand reads measure DSL from its argument (or from a file when the
argument starts with ``@``), makes one library call and writes its result to
standard output.  A result that is one exact value, a rational (eval, gap,
ei-sum) or text (encode prints a measure, decode a payload), prints bare so
it can be fed back into other commands.  Every other result is a document:
``key: value`` lines, nested blocks indented by two spaces, keys in a fixed
order.  Errors are documents too, with a machine-readable ``error:`` code
line.

Exit codes: 1 exactly when the result is Inconclusive or a family build that
stopped at a failure, 2 for errors of any kind (syntax, semantic, budget,
domain), else 0.

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
from .kakutani import Inconclusive


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


# argparse types of the numeric arguments; the others are text until read
_TYPES = dict.fromkeys("k depth max_depth stages N budget precision count".split(), int)
_TYPES["epsilon"] = _rational

# The readers run inside main's ``try``, after parse_args: as an argparse
# type, a DSL error would be a usage error instead of an ``error:`` document.
_READERS = {
    **dict.fromkeys(("measure", "mu", "nu", "f", "g"), lambda arg: _parse(_source(arg))),
    **dict.fromkeys(("x", "y"), lambda arg: _parse(_source(arg), dsl.parse_pattern)),
    **dict.fromkeys(("a", "b"), lambda arg: _parse(_source(arg), dsl.parse_schedule)),
    "payload": lambda arg: _parse(arg, dsl.parse_payload),
    "bits": check_bitstring,
}

# name, help, arguments (positional names, then ``--budget`` where it is an
# option) and the library call, given the read arguments in that order.  A
# row without a call is a group: the rows named "<group> <name>" below it.
_COMMANDS = [
    ("eval", "cylinder mass as an exact rational", "measure bits", measures.eval_cylinder),
    (
        "encode",
        "stamp a payload into a measure's spine",
        "measure payload --budget",
        lambda base, payload, budget: dsl.print_measure(codec.encode(base, payload, budget)),
    ),
    ("decode", "read payload bits off a measure's spine", "measure k --budget", codec.decode),
    ("gap", "depth-d total-variation gap", "mu nu depth", orthogonality.gap),
    (
        "certify",
        "search for an orthogonality certificate",
        "mu nu epsilon max_depth",
        orthogonality.ortho_certificate,
    ),
    (
        "modulus",
        "continuity modulus or atom witness",
        "mu epsilon max_depth",
        orthogonality.continuity_modulus,
    ),
    (
        "refute-ac",
        "refute absolute continuity",
        "mu nu epsilon stages max_depth",
        orthogonality.refute_abs_continuity,
    ),
    ("ei-sum", "weighted difference partial sum", "x y N", kakutani.ei_partial_sum),
    ("classify", "equivalent / orthogonal / inconclusive", "x y budget", kakutani.classify_pair),
    (
        "hellinger",
        "Hellinger-style partial sum enclosure",
        "a b N precision",
        kakutani.hellinger_partial,
    ),
    ("metric", "code-metric bracket endpoints", "f g N", measures.metric_bracket),
    ("family", "orthogonal family construction", "", None),
    (
        "family build",
        "iterated family extension transcript",
        "count epsilon max_depth",
        orthogonality.build_family,
    ),
]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cmc",
        description="Exact-rational measure codes on Cantor space.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, about, params, call in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=about)
        if call is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        names = params.split()
        for param in names:
            if param.startswith("--"):
                p.add_argument(param, type=int, default=None, help="splitting-search budget")
            else:
                p.add_argument(param, type=_TYPES.get(param))
        p.set_defaults(call=call, params=[param.lstrip("-") for param in names])
    return parser


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


def _document(result):
    """The ``key: value`` items of a result that does not print bare, or of
    an error."""
    if isinstance(result, Diagnostic):
        return [
            ("error", result.code),
            ("line", result.line),
            ("column", result.column),
            ("expected", ", ".join(result.expected)),
            ("message", result.message),
        ]
    if isinstance(result, Exception):
        items = [("error", result.code if isinstance(result, CmcError) else "invalid-argument")]
        if isinstance(result, NotInCodingDomain):
            items += [("index", result.index), ("node", result.node)]
        return items + [("message", str(result))]
    if isinstance(result, tuple):  # a metric bracket
        lo, hi = result
        return [("lo", lo), ("hi", hi)]
    if isinstance(result, kakutani.HellingerReport):
        lo, hi = result.sum_interval
        return [("N", result.N), ("lo", lo), ("hi", hi), ("precision_bits", result.precision_bits)]
    if isinstance(result, Inconclusive):
        items = [("result", "inconclusive")]
        if result.best_gap is not None:  # an orthogonality search: what it saw
            items += [("best_gap", result.best_gap), ("at_depth", result.at_depth)]
        return items + [("detail", result.detail or "no certificate within the depth bound")]
    if isinstance(result, orthogonality.OrthoCertificate):
        return [("result", "certificate")] + _cert_items(result)
    if isinstance(result, orthogonality.Modulus):
        return [("result", "modulus"), ("n", result.n)]
    if isinstance(result, orthogonality.AtomWitness):
        return [
            ("result", "atom-witness"),
            ("prefix", result.prefix),
            ("epsilon", result.epsilon),
            ("mass", result.mass),
        ]
    if isinstance(result, orthogonality.RefutationWitness):
        items = [("result", "refutation"), ("epsilon", result.epsilon)]
        for index, (delta, family) in enumerate(result.stages, start=1):
            stage = [("index", index), ("delta", delta), ("cells", _cells_text(family))]
            items.append(("stage", stage))
        return items
    if isinstance(result, kakutani.EquivalentFiniteDifference):
        return [("result", "equivalent"), ("last_diff", result.last_diff)]
    if isinstance(result, kakutani.OrthogonalEvidence):
        cert = result.cert
        return [
            ("result", "orthogonal"),
            ("N", cert.N),
            ("partial_sum", cert.partial_sum),
            ("target", cert.target),
        ]
    # a family build
    items = [
        ("result", "family" if result.failure is None else "partial"),
        ("count", len(result.measures)),
    ]
    for index, code in enumerate(result.measures):
        items.append(("member", [("index", index), ("parameter_word", code.schedule.x.word)]))
    for cert in result.certificates:
        items.append(("certificate", _cert_items(cert)))
    if result.failure is not None:
        for candidate, best_gap, at_depth in result.failure.best_gaps:
            word = getattr(candidate, "word", repr(candidate))
            rejected = [("parameter_word", word), ("best_gap", best_gap), ("at_depth", at_depth)]
            items.append(("rejected", rejected))
    return items


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if "budget" in args.params and args.budget is None:
            args.budget = _default_budget()
        values = [_READERS.get(name, lambda v: v)(getattr(args, name)) for name in args.params]
        result = args.call(*values)
    except (CmcError, ValueError, OverflowError) as err:
        result = err
    if isinstance(result, (str, Fraction)):
        print(_text(result))
    else:
        _emit(_document(result))
    if isinstance(result, Exception):
        return 2
    failed = isinstance(result, orthogonality.FamilyBuildResult) and result.failure is not None
    return 1 if isinstance(result, Inconclusive) or failed else 0


if __name__ == "__main__":
    sys.exit(main())
