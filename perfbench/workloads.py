"""The four workloads: what one round does, and how each answer is checked.

A round is a fixed list of operations.  The seed picks values (schedule
patterns, table permutations, payload bits, branches) but never the amount
of work, so rounds of every seed cost about the same.  Every round of a run
repeats the same operations on the same inputs; reference answers are
computed once, on first use, by :mod:`reference`, and every answer of every
round is compared with them.

``run`` callables are timed; ``check`` callables are not.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

F = Fraction


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _parsed(cmc, text):
    code = cmc.parse(text)
    if isinstance(code, cmc.Diagnostic):
        raise code
    return code


def _flip(bits):
    return bits.translate(str.maketrans("01", "10"))


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


# ---------------------------------------------------------------------------
# product-gap: exact gaps of product measures, cold


class ProductGap:
    """Depth-26 and depth-28 MIM gaps, affinity-settled certificate searches, shallow
    level-walk scans and constant-schedule (binomial) gaps.  Each pair is a
    ks pattern against its complement, so every coordinate differs and the
    affinity bound is the same for every seed."""

    warm = False

    def __init__(self, cmc, rng):
        self.cmc = cmc
        a = (_bits(rng, 2), _bits(rng, 3))
        c = (_bits(rng, 1), _bits(rng, 4))
        self.scheds = {
            "A": ("ks",) + a,
            "B": ("ks", _flip(a[0]), _flip(a[1])),
            "C": ("ks",) + c,
            "D": ("ks", _flip(c[0]), _flip(c[1])),
        }
        k1, k2 = rng.sample(range(1, 7), 2)
        self.scheds["P"] = ("const", F(k1, 7))
        self.scheds["Q"] = ("const", F(k2, 7))
        self.texts = {
            name: (
                f"product(ks({s[1]}({s[2]})*))" if s[0] == "ks" else f"product(const({s[1]}))"
            )
            for name, s in self.scheds.items()
        }
        self.pair_gaps = {}  # "AB", "CD", "PQ" -> {(order, depth): gap}

    def _record(self, x, y, d, g):
        key = "".join(sorted(x + y))
        gaps = self.pair_gaps.setdefault(key, {})
        gaps[(0 if x < y else 1, d)] = g
        return ref.check_pair_gaps(f"pair {key}", gaps)

    def gap_op(self, x, y, d, kind):
        cmc = self.cmc
        tx, ty = self.texts[x], self.texts[y]
        sx, sy = self.scheds[x], self.scheds[y]

        def run():
            return cmc.gap(_parsed(cmc, tx), _parsed(cmc, ty), d)

        if kind == "deep":
            want = functools.cache(lambda: (ref.float_mim_gap(sx, sy, d), ref.affinity_bound(sx, sy, d)))

            def check(g):
                est, bound = want()
                problems = ref.check_near(f"gap {x}{y} depth {d}", g, est)
                if float(g) > bound + 1e-12:
                    problems.append(f"gap {x}{y} depth {d} above the affinity bound {bound}")
                return problems + self._record(x, y, d, g)

        else:
            if kind == "const":
                want = functools.cache(lambda: ref.const_gap(sx[1], sy[1], d))
            else:
                want = functools.cache(lambda: _masses_gap(ref.product_gap_masses(sx, sy, d)))

            def check(g):
                return ref.check_exact(f"gap {x}{y} depth {d}", g, want()) + self._record(x, y, d, g)

        return Op(f"gap-{kind}-{x}{y}-{d}", run, check)

    def certify_op(self, x, y, eps, max_depth):
        """Certificate search on a ks pair.  Beyond depth 16 the affinity
        bound must settle it; at or below, every depth is scanned."""
        cmc = self.cmc
        tx, ty = self.texts[x], self.texts[y]
        sx, sy = self.scheds[x], self.scheds[y]
        masses = {}

        def masses_at(d):
            if d not in masses:
                masses[d] = ref.product_gap_masses(sx, sy, d)
            return masses[d]

        def run():
            return cmc.ortho_certificate(_parsed(cmc, tx), _parsed(cmc, ty), eps, max_depth)

        def check(res):
            what = f"certify {x}{y} to {max_depth}"
            if not isinstance(res, cmc.Inconclusive):
                return [f"{what}: expected Inconclusive, got {type(res).__name__}"]
            problems = ref.check_inconclusive(
                what, res.best_gap, res.at_depth, max_depth, lambda d: _masses_gap(masses_at(d))
            )
            if max_depth > 16:
                if not ref.affinity_bound(sx, sy, max_depth) < 1 - 2 * eps - 1e-9:
                    problems.append(f"{what}: affinity bound does not exclude a certificate")
            else:
                problems += ref.check_no_certificate(
                    what, {d: masses_at(d) for d in range(1, max_depth + 1)}, eps
                )
                problems += ref.check_exact(
                    f"{what} best gap", res.best_gap, _masses_gap(masses_at(max_depth))
                )
            return problems

        return Op(f"certify-{x}{y}-{max_depth}", run, check)

    def ops(self):
        # Five fast operations, the two affinity-settled searches in the
        # middle, five slow ones: the median lands on the middle pair.
        return [
            self.gap_op("A", "B", 26, "deep"),
            self.gap_op("B", "A", 26, "deep"),
            self.gap_op("A", "B", 28, "deep"),
            self.gap_op("C", "D", 26, "deep"),
            self.gap_op("D", "C", 26, "deep"),
            self.certify_op("A", "B", F(1, 20), 20),
            self.certify_op("C", "D", F(1, 20), 24),
            self.certify_op("A", "B", F(1, 20), 10),
            self.gap_op("A", "B", 10, "shallow"),
            self.gap_op("B", "A", 10, "shallow"),
            self.gap_op("P", "Q", 200, "const"),
            self.gap_op("Q", "P", 150, "const"),
        ]


def _masses_gap(masses):
    mu_a, nu_a = masses
    return nu_a - mu_a


# ---------------------------------------------------------------------------
# coded-class: cold codes through the codec


CODED_LEVEL = 10
PAYLOAD_BITS = 16
TABLE1 = (1, 1, 2, 2, 2, 2, 3, 3)  # leaf numerators over 16, permuted per seed
TABLE2 = (1, 2, 2, 2, 2, 2, 2, 3)


def _table_spec(rng, numerators):
    nums = list(numerators)
    rng.shuffle(nums)
    return ("table", 3, tuple(zip(ref.strings_of_length(3), (F(n, 16) for n in nums))))


class CodedClass:
    """One operation per base kind: parse, encode, print, re-parse, decode,
    and check the measure class to a fixed level."""

    warm = False

    def __init__(self, cmc, rng):
        self.cmc = cmc
        k = rng.randrange(1, 7)
        w = rng.randrange(1, 8)
        self.bases = {
            "uniform": ("uniform",),
            "product": ("product", ("const", F(rng.randrange(1, 7), 7))),
            "table": _table_spec(rng, TABLE1),
            "table2": _table_spec(rng, TABLE2),
            "convex": (
                "convex",
                ((F(w, 8), ("uniform",)), (F(8 - w, 8), ("product", ("const", F(k, 7))))),
            ),
        }
        self.payloads = {name: _bits(rng, PAYLOAD_BITS) for name in self.bases}
        self.by_length = [ref.strings_of_length(n) for n in range(CODED_LEVEL + 1)]
        self.strings = [s for level in self.by_length for s in level]

    def op(self, name):
        cmc = self.cmc
        base_spec, payload = self.bases[name], self.payloads[name]
        base_text = ref.canonical_text(base_spec)
        coded_ref = ref.Ref(("coded", base_spec, payload))
        want_text = ref.canonical_text(("coded", base_spec, payload))
        strings, by_length = self.strings, self.by_length
        level = CODED_LEVEL

        def run():
            base = _parsed(cmc, base_text)
            text = cmc.print_measure(cmc.encode(base, payload))
            g = _parsed(cmc, text)
            out = {
                "text": text,
                "reprinted": cmc.print_measure(g),
                "decoded": cmc.decode(g, len(payload)),
                "validate": cmc.validate_additivity(g, level),
                "zero_mismatch": [s for s in strings if (base.mass(s) == 0) != (g.mass(s) == 0)],
                "g": g,
            }
            densities = {}
            for root in cmc.offspine_decomposition(base, level):
                below = (root + e for n in range(level - len(root) + 1) for e in by_length[n])
                densities[root] = {cmc.density(g, s) for s in below if base.mass(s) > 0}
            out["densities"] = densities
            return out

        def check(out):
            what = f"coded {name}"
            g = out["g"]
            problems = ref.check_exact(f"{what} text", out["text"], want_text)
            problems += ref.check_exact(f"{what} print(parse(text))", out["reprinted"], out["text"])
            problems += ref.check_exact(f"{what} decode", out["decoded"], payload)
            problems += ref.check_exact(f"{what} additivity", out["validate"], "ok")
            problems += ref.check_exact(f"{what} zero-set mismatches", out["zero_mismatch"], [])
            for root, values in out["densities"].items():
                want = coded_ref.mass(root) / coded_ref.base.mass(root)
                problems += ref.check_exact(f"{what} density below {root!r}", values, {want})
            problems += ref.check_spine_splits(what, coded_ref, g.mass, len(payload))
            bad = [s for s in strings if g.mass(s) != coded_ref.mass(s)]
            if bad:
                problems.append(f"{what}: {len(bad)} masses differ from the spec, first {bad[0]!r}")
            return problems

        return Op(f"coded-{name}", run, check)

    def ops(self):
        return [self.op(name) for name in self.bases]


# ---------------------------------------------------------------------------
# cell-walk: warm non-product codes answering repeated queries


DEEP_LENGTH = 600


def _deep_mass(r, s):
    """Reference mass of a long cylinder; prefixes first, so no recursion."""
    for n in range(len(s) + 1):
        r.mass(s[:n])
    return r.mass(s)


class CellWalk:
    """Long-lived tables, mixtures, a coded table, a point mass and a finite
    measure, built and memo-filled in set-up; each round reads the memos.
    Of the 13 operations that complete, six take under a millisecond, six
    take 9 ms or more, and the scan of T1 against T2 sits alone between.

    Branches are placed under table leaves of numerator 2, so certificate
    depths, modulus levels and refutation depths do not depend on the seed.
    Two cold evaluations of length-600 cylinders end every round; they fail
    while ``MeasureCode.mass`` recurses once per level."""

    warm = True

    def __init__(self, cmc, rng):
        self.cmc = cmc
        t1, t2 = _table_spec(rng, TABLE1), _table_spec(rng, TABLE2)
        twos1 = [leaf for leaf, m in t1[2] if m == F(2, 16)]
        twos2 = [leaf for leaf, m in t2[2] if m == F(2, 16)]
        w = rng.choice(twos1) + _bits(rng, 5)
        f1 = rng.choice(twos2) + _bits(rng, 2)
        others = [s for s in ref.strings_of_length(5) if s[:3] != f1[:3]]
        f2, f3 = rng.sample(others, 2)
        payload = _bits(rng, 8)
        self.specs = {
            "T1": t1,
            "T2": t2,
            "C": ("coded", t1, payload),
            "X": ("convex", ((F(1, 2), t2), (F(1, 2), ("uniform",)))),
            "D": ("dirac", w),
            "F": ("finite", ((f1, F(1, 2)), (f2, F(1, 4)), (f3, F(1, 4)))),
            "A": ("convex", ((F(1, 2), ("dirac", w)), (F(1, 2), t2))),
        }
        self.codes = {name: _parsed(cmc, ref.canonical_text(s)) for name, s in self.specs.items()}
        self.refs = {name: ref.Ref(s) for name, s in self.specs.items()}

    def gap_op(self, x, y, d):
        cmc, mu, nu = self.cmc, self.codes[x], self.codes[y]
        want = functools.cache(lambda: _masses_gap(ref.brute_gap_masses(self.refs[x], self.refs[y], d)))
        return Op(
            f"gap-{x}{y}-{d}",
            lambda: cmc.gap(mu, nu, d),
            lambda g: ref.check_exact(f"gap {x}{y} depth {d}", g, want()),
        )

    def certify_op(self, x, y, eps, max_depth, expect):
        cmc, mu, nu = self.cmc, self.codes[x], self.codes[y]
        rx, ry = self.refs[x], self.refs[y]
        what = f"certify {x}{y}"

        def check(res):
            if expect == "certificate":
                if not isinstance(res, cmc.OrthoCertificate):
                    return [f"{what}: expected a certificate, got {type(res).__name__}"]
                return ref.check_certificate(
                    what, rx, ry, eps, res.depth, list(res.cells.strings), res.mu_mass, res.nu_mass
                )
            if not isinstance(res, cmc.Inconclusive):
                return [f"{what}: expected Inconclusive, got {type(res).__name__}"]
            masses = {d: ref.brute_gap_masses(rx, ry, d) for d in range(1, max_depth + 1)}
            problems = ref.check_no_certificate(what, masses, eps)
            return problems + ref.check_inconclusive(
                what, res.best_gap, res.at_depth, max_depth, lambda d: _masses_gap(masses[d])
            )

        return Op(
            f"certify-{x}{y}",
            lambda: cmc.ortho_certificate(mu, nu, eps, max_depth),
            _once_per_answer(check),
        )

    def modulus_op(self, x, eps, max_depth, expect):
        cmc, mu, r = self.cmc, self.codes[x], self.refs[x]

        def check(res):
            what = f"modulus {x}"
            if expect == "modulus":
                if not isinstance(res, cmc.Modulus):
                    return [f"{what}: expected a modulus, got {type(res).__name__}"]
                return ref.check_modulus(what, r, eps, res.n)
            if not isinstance(res, cmc.AtomWitness):
                return [f"{what}: expected an atom witness, got {type(res).__name__}"]
            return ref.check_atom_witness(what, r, eps, max_depth, res.prefix, res.mass)

        return Op(
            f"modulus-{x}",
            lambda: cmc.continuity_modulus(mu, eps, max_depth),
            _once_per_answer(check),
        )

    def refute_op(self, x, y, eps, stages, max_depth):
        cmc, mu, nu = self.cmc, self.codes[x], self.codes[y]

        def check(res):
            what = f"refute {x}{y}"
            if not isinstance(res, cmc.RefutationWitness):
                return [f"{what}: expected a refutation, got {type(res).__name__}"]
            got = [(delta, list(fam.strings)) for delta, fam in res.stages]
            return ref.check_refutation(what, self.refs[x], self.refs[y], eps, stages, got)

        return Op(
            f"refute-{x}{y}",
            lambda: cmc.refute_abs_continuity(mu, nu, eps, stages, max_depth),
            _once_per_answer(check),
        )

    def bracket_op(self, x, y, n):
        cmc, f, g = self.cmc, self.codes[x], self.codes[y]
        return Op(
            f"metric-{x}{y}",
            lambda: cmc.metric_bracket(f, g, n),
            _once_per_answer(
                lambda b: ref.check_bracket(f"metric {x}{y}", self.refs[x], self.refs[y], n, *b)
            ),
        )

    def deep_op(self, text, spec, s):
        """A cold evaluation of a long cylinder (its answer is also checked,
        for the day it stops failing)."""
        cmc = self.cmc
        want = functools.cache(lambda: _deep_mass(ref.Ref(spec), s))
        return Op(
            f"deep-{spec[0]}",
            lambda: cmc.eval_cylinder(_parsed(cmc, text), s),
            lambda m: ref.check_exact(f"deep cylinder of {text}", m, want()),
        )

    def ops(self):
        return [
            self.gap_op("T1", "T2", 12),
            self.gap_op("C", "T1", 12),
            self.gap_op("X", "C", 11),
            self.gap_op("A", "T2", 12),
            self.certify_op("D", "T1", F(1, 20), 14, "certificate"),
            self.certify_op("T1", "T2", F(1, 20), 9, "inconclusive"),
            self.modulus_op("T1", F(1, 40), 16, "modulus"),
            self.modulus_op("X", F(1, 64), 16, "modulus"),
            self.modulus_op("A", F(1, 4), 16, "atom"),
            self.refute_op("D", "T1", F(1, 2), 3, 12),
            self.refute_op("F", "X", F(1, 2), 3, 12),
            self.bracket_op("T1", "C", 2047),
            self.bracket_op("X", "F", 1023),
            self.deep_op("product(const(1/3))", ("product", ("const", F(1, 3))), "0" * DEEP_LENGTH),
            self.deep_op("coded(uniform; 0x5)", ("coded", ("uniform",), "0101"), "1" * DEEP_LENGTH),
        ]


def _once_per_answer(check):
    """Check an answer in full once, then compare later answers with it.

    The warm queries return equal answers every round, so a later answer is
    right exactly when it equals the first one, which was checked against
    the spec."""
    seen = []

    def checked(answer):
        if not seen:
            problems = check(answer)
            if problems:
                return problems
            seen.append(answer)
            return []
        return [] if answer == seen[0] else ["answer differs from the checked one"]

    return checked


# ---------------------------------------------------------------------------
# cli-examples: the README's CLI lines, one process each


def _doc(text):
    """Parse a ``key: value`` document (two-space nesting) into a list of
    (key, value-or-list) items; raise ValueError when it is malformed."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("document does not end with a newline")
    stack = [(0, [])]
    for line in lines[:-1]:
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if indent % 2 or indent // 2 > len(stack) - 1:
            raise ValueError(f"bad indentation: {line!r}")
        del stack[indent // 2 + 1 :]
        key, sep, value = stripped.partition(":")
        if not sep or not key or not key.replace("_", "").isalnum():
            raise ValueError(f"not a key line: {line!r}")
        if value == "":
            block = []
            stack[-1][1].append((key, block))
            stack.append((indent // 2 + 1, block))
        elif value.startswith(" ") and value[1:] == value[1:].strip():
            stack[-1][1].append((key, value[1:]))
        else:
            raise ValueError(f"bad value: {line!r}")
    return stack[0][1]


def _fields(items):
    return {k: v for k, v in items if not isinstance(v, list)}


def _blocks(items, key):
    return [v for k, v in items if k == key and isinstance(v, list)]


class CliExamples:
    """Every CLI example of the README as its own process, one after
    another; the seed shuffles their order (encode stays before the decode
    that reads its output).  Each process runs ``cmc.cli`` through
    ``cli_child.py``, which reports the process's own peak memory."""

    warm = False

    def __init__(self, root, rng, traced):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"
        self.prefix = [sys.executable, os.path.join(root, "perfbench", "cli_child.py"), str(int(traced))]
        self.traced = traced
        self.traces = []
        self.peak_rss_mb = 0.0
        self.encoded = None
        examples = list(self._examples())
        rng.shuffle(examples)
        enc = next(i for i, e in enumerate(examples) if e[0] == "encode")
        examples.insert(enc + 1, self._decode_example())
        self.examples = examples

    def _run(self, args):
        proc = subprocess.run(
            self.prefix + args, cwd=self.root, env=self.env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cmc {' '.join(args)} exited {proc.returncode}: {proc.stdout}{proc.stderr}")
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        self.peak_rss_mb = max(self.peak_rss_mb, report.pop("peak_rss_mb"))
        if self.traced:
            self.traces.append(report)
        if args[0] == "encode":
            self.encoded = proc.stdout
        return proc.stdout

    def ops(self):
        return [
            Op(f"cli-{name}", (lambda a=args: self._run(a)) if args else self._decode_args, check)
            for name, args, check in self.examples
        ]

    def _decode_args(self):
        return self._run(["decode", self.encoded.strip(), "2"])

    def _decode_example(self):
        return ("decode", None, lambda out: ref.check_exact("decode", out, "10\n"))

    def _examples(self):
        u, d0 = ref.Ref(("uniform",)), ref.Ref(("dirac", "0"))

        def bare(what, want):
            return lambda out: ref.check_exact(what, out, f"{want}\n")

        def encode_check(out):
            return ref.check_exact("encode", out, ref.canonical_text(("coded", ("uniform",), "10")) + "\n")

        def certify_check(out):
            f = _fields(_doc(out))
            eps = F(f["epsilon"])
            problems = ref.check_exact("certify result", f["result"], "certificate")
            return problems + ref.check_certificate(
                "certify", d0, u, eps, int(f["depth"]), f["cells"].split(), F(f["mu_mass"]), F(f["nu_mass"])
            )

        def modulus_check(out):
            f = _fields(_doc(out))
            if f.get("result") != "modulus":
                return [f"modulus: result {f.get('result')}"]
            return ref.check_modulus("modulus", u, F(1, 4), int(f["n"]))

        def refute_check(out):
            items = _doc(out)
            stages = [_fields(b) for b in _blocks(items, "stage")]
            got = [(F(s["delta"]), s["cells"].split()) for s in stages]
            problems = ref.check_exact("refute-ac result", _fields(items)["result"], "refutation")
            problems += ref.check_exact("refute-ac indices", [int(s["index"]) for s in stages], [1, 2, 3])
            return problems + ref.check_refutation("refute-ac", d0, u, F(1, 2), 3, got)

        def classify_check(out):
            x, y = "0101", "01"
            last = max(n for n in range(4) if (x + "0000")[n] != (y + "0000")[n])
            return ref.check_exact("classify", _fields(_doc(out)), {"result": "equivalent", "last_diff": str(last)})

        def hellinger_check(out):
            f = _fields(_doc(out))
            lo, hi = F(f["lo"]), F(f["hi"])
            total = 10 * (1 - (math.sqrt(1 / 8) + math.sqrt(3 / 8)))  # const(1/4) vs const(1/2)
            problems = ref.check_exact("hellinger N/bits", (f["N"], f["precision_bits"]), ("10", "20"))
            if not float(lo) <= total <= float(hi):
                problems.append(f"hellinger: {total!r} outside [{lo}, {hi}]")
            if not 0 <= hi - lo <= F(10, 1 << 20):
                problems.append(f"hellinger: width {hi - lo} above 10 * 2**-20")
            return problems

        def family_check(out):
            items = _doc(out)
            f = _fields(items)
            words = [_fields(b)["parameter_word"] for b in _blocks(items, "member")]
            certs = [_fields(b) for b in _blocks(items, "certificate")]
            problems = ref.check_exact("family", (f["result"], f["count"], len(words), len(certs)), ("family", "2", 2, 1))
            if problems:
                return problems
            mu, nu = (ref.Ref(("product", ("block", w))) for w in words)
            c = certs[0]
            return problems + ref.check_certificate(
                "family certificate", mu, nu, F(c["epsilon"]), int(c["depth"]), c["cells"].split(),
                F(c["mu_mass"]), F(c["nu_mass"]),
            )

        def metric_check(out):
            f = _fields(_doc(out))
            return ref.check_bracket("metric", u, d0, 8, F(f["lo"]), F(f["hi"]))

        def gap_check(out):
            return ref.check_exact("gap", out, f"{_masses_gap(ref.brute_gap_masses(d0, u, 2))}\n")

        yield ("eval", ["eval", "uniform", "01"], bare("eval", u.mass("01")))
        yield ("gap", ["gap", "dirac(0)", "uniform", "2"], gap_check)
        yield ("encode", ["encode", "uniform", "10"], encode_check)
        yield ("certify", ["certify", "dirac(0)", "uniform", "1/20", "10"], certify_check)
        yield ("modulus", ["modulus", "uniform", "1/4", "32"], modulus_check)
        yield ("refute-ac", ["refute-ac", "dirac(0)", "uniform", "1/2", "3", "20"], refute_check)
        yield ("ei-sum", ["ei-sum", "", "1*", "4"], bare("ei-sum", sum(F(1, n + 1) for n in range(4))))
        yield ("classify", ["classify", "0101", "01", "1000"], classify_check)
        yield ("hellinger", ["hellinger", "const(1/4)", "const(1/2)", "10", "20"], hellinger_check)
        yield ("family", ["family", "build", "2", "9/20", "16"], family_check)
        yield ("metric", ["metric", "uniform", "dirac(0)", "8"], metric_check)


WORKLOADS = ("product-gap", "coded-class", "cell-walk", "cli-examples")


def build(name, root, rng, traced):
    """The workload object; it imports ``cmc`` from ``src/`` unless the
    workload only starts processes."""
    if name == "cli-examples":
        return CliExamples(root, rng, traced)
    import cmc

    return {"product-gap": ProductGap, "coded-class": CodedClass, "cell-walk": CellWalk}[name](cmc, rng)
