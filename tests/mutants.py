"""Mutation check: each mutant breaks one fast path, and one test file must catch it.

Run from anywhere:  python3 tests/mutants.py

For each entry of ``CAUGHT`` the script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, replaces the entry's old text,
which must occur exactly once in its file, and runs ``pytest -x -q`` on the
entry's test file there, with ``PYTHONPATH`` pointing at the copied ``src``.
The mutant is caught when pytest reports a failed test (exit status 1).  The
script exits 1 when a mutant survives or an old text does not occur exactly
once, so code that moves updates the table instead of leaving it behind.
pytest does not collect this file, and CI runs it after the tier-1 tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/thomae, exact old text, new text, test file that must fail)
CAUGHT = [
    ("curve.py",  # records that differ in their last field compare equal
     "cls._key = attrgetter(*cls._fields)", "cls._key = attrgetter(*cls._fields[:-1])",
     "tests/test_records.py"),
    ("curve.py",  # a record equals one of another class with the same field values
     "        if other.__class__ is not self.__class__:\n            return NotImplemented\n", "",
     "tests/test_records.py"),
    ("curve.py",  # a field missing, repeated or unknown is bound or dropped without a word
     "        if len(values) != len(self._fields) or named:\n"
     "            raise TypeError(f\"{type(self).__name__} takes each of the fields "
     "{self._fields} once\")\n", "",
     "tests/test_records.py"),
    ("curve.py",  # a record's fields can be assigned after construction
     "raise AttributeError(f\"cannot assign to field {name!r}\")",
     "object.__setattr__(self, name, value)",
     "tests/test_records.py"),
    ("curve.py",  # a record built unchecked lacks its last field
     "out.__dict__.update(zip(cls._fields, values))",
     "out.__dict__.update(zip(cls._fields[:-1], values))",
     "tests/test_records.py"),
    ("curve.py",  # a class count takes 1.0 and True for 1, and a list to a bare TypeError
     "        if not is_int(alpha):\n"
     "            raise CurveError(f\"alpha must be an integer, got {alpha!r}\")\n", "",
     "tests/test_gate.py"),
    ("curve.py",  # a curve that is not fully ramified is built
     "        if problems:\n            raise CurveError(\"; \".join(problems))\n", "",
     "tests/test_curve.py"),
    ("curve.py",  # points that are not a tuple of BranchPoints reach the alpha checks
     "            return [f\"points must be a tuple of BranchPoints, got {points!r}\"]\n",
     "            pass\n",
     "tests/test_curve.py"),
    ("curve.py",  # a z-value that is not exact, a float or a string, builds a curve
     "            if inexact:\n"
     "                problems.append(f\"z-values must be integers or Fractions, got "
     "{inexact[0]!r}\")\n            elif", "            if",
     "tests/test_curve.py"),
    ("curve.py",  # an int path is opened as a file descriptor, which is closed after
     "    _require_type(path, (str, os.PathLike), \"path must be a str or an os.PathLike\", "
     "CurveError)\n", "",
     "tests/test_curve.py"),
    ("curve.py",  # a z-value such as "1e10000000" stalls its job in Fraction's 10 ** exponent
     "if limit and _exponent_past(value, limit):", "if False:",
     "tests/test_gate.py"),
    ("curve.py",  # every wrong-type refusal escapes main as a bare TypeError
     "        raise error(f\"{claim}, got {value!r}\")",
     "        raise TypeError(f\"{claim}, got {value!r}\")",
     "tests/test_gate.py"),
    ("cli.py",  # ftable builds a table one past its cap
     "if args.n > FTABLE_MAX_N:", "if args.n > FTABLE_MAX_N + 1:",
     "tests/test_cli.py"),
    ("cli.py",  # the digit bound one digit too low refuses a value that fits
     "bits = (10 ** limit).bit_length()", "bits = (10 ** (limit - 1)).bit_length()",
     "tests/test_cli.py"),
    ("denominators.py",  # entries that are not a mapping reach .items()
     "        if entries is not None:\n"
     "            _require_type(entries, Mapping, \"entries must be a Mapping\", DivisorError)\n", "",
     "tests/test_gate.py"),
    ("denominators.py",
     "    out[rows[q_id][r_id]] = 0  # the pair {Q, R} itself does not move\n", "",
     "tests/test_denominators.py"),
    ("denominators.py",
     "_slot_pair_exponent(n, s, t) if s <= t else", "_slot_pair_exponent(n, s, t) if s >= t else",
     "tests/test_denominators.py"),
    ("denominators.py",
     "if i == q_id or v == 0 and alpha in classes:", "if i == q_id:",
     "tests/test_denominators.py"),
    ("denominators.py",  # the reversed walk is h's own walk, so the assembly-order check is vacuous
     "_slot_pair_exponent(n, max(s, t), min(s, t))", "_slot_pair_exponent(n, min(s, t), max(s, t))",
     "tests/test_verify.py"),
    ("denominators.py",  # the swap law is checked against minus the shift
     "- by[x * n + y]", "+ by[x * n + y]",
     "tests/test_verify.py"),
    ("denominators.py",  # a shift entry on a pair with Q or R reads the level of Q or R
     "if j in (q_id, r_id)", "if i in (q_id, r_id)",
     "tests/test_verify.py"),
    ("divisors.py",  # a DivisorError is no refusal that main catches, and escapes as a traceback
     "class DivisorError(ThomaeError):", "class DivisorError(ValueError):",
     "tests/test_cli.py"),
    ("divisors.py",
     "if len(out) > STATE_BUDGET:", "if len(out) >= STATE_BUDGET:",
     "tests/test_divisors.py"),
    ("divisors.py",
     "if stored > STATE_BUDGET:", "if stored >= STATE_BUDGET:",
     "tests/test_divisors.py"),
    ("divisors.py",  # counting and listing read the shift of a kind that is not a DivisorKind
     "    _require_kind(kind)\n    allowed = ", "    allowed = ",
     "tests/test_gate.py"),
    ("divisors.py",
     "for rows in sorted(found):", "for rows in found:",
     "tests/test_divisors.py"),
    ("divisors.py",
     "if total > max_vertices:", "if total >= max_vertices:",
     "tests/test_gate.py"),
    ("divisors.py",  # the walk's restore step
     "                row[level] += 1\n", "",
     "tests/test_divisors.py"),
    ("ffunctions.py",  # a table read at True gives the value at 1, at "x" a bare TypeError
     "        if not is_int(l):  # True would read index 1\n"
     "            raise FFunctionError(f\"l = {l!r} is not an integer\")\n", "",
     "tests/test_gate.py"),
    ("operators.py",  # a group element with reflect "yes" composes N with N into a reflection
     "        _require_type(reflect, bool, \"reflect must be a bool\", DivisorError)  "
     "# compose reads !=\n", "",
     "tests/test_gate.py"),
    ("operators.py",  # N_beta off by one
     "return (alpha * k_inverse(beta, n) - 1 - l) % n",
     "return (alpha * k_inverse(beta, n) - l) % n",
     "tests/test_operators.py"),
    ("operators.py",  # N_beta reads T's b-reflection and T the a-reflection
     "lambda a, l: a_value(b, a, l, n)))\n        self.reflections = cache("
     "lambda b: self._maps(lambda a, l: b_value(",
     "lambda a, l: b_value(b, a, l, n)))\n        self.reflections = cache("
     "lambda b: self._maps(lambda a, l: a_value(",
     "tests/test_operators.py"),
    ("operators.py",
     "lambda a, l: l - a * k", "lambda a, l: l + a * k",
     "tests/test_operators.py"),
    ("orbits.py",
     "if not (div.curve == self.curve and div.kind", "if not (div.kind",
     "tests/test_orbits.py"),
    ("orbits.py",
     "for x, y in counts[: degree_hint + 1]:", "for x, y in counts[: degree_hint]:",
     "tests/test_orbits.py"),
    ("verify.py",  # checks that are not a sequence are iterated
     "_require_sequence(\"checks\", checks, DivisorError)", "checks",
     "tests/test_gate.py"),
    ("verify.py",  # the column checks' findings come out check by check, not row by row
     "for *_, message in sorted(found)]", "for *_, message in found]",
     "tests/test_verify.py"),
    ("verify.py",  # M^n is read as M itself
     "[t.rotations(1)] * n", "[t.rotations(1)]",
     "tests/test_verify.py"),
    ("verify.py",  # T-hat's validity is decided per level pair even where a listed row fails
     "meet = spec.packed[0], not any(_invalid(spec, rows, ident, cols))",
     "meet = spec.packed[0], True",
     "tests/test_verify.py"),
    ("verify.py",  # T-hat's validity is decided per level pair even where it moves a third point
     "if meet and all(list(m) == ident[0] for i, m in enumerate(hat) if i not in (q, r)):",
     "if meet:",
     "tests/test_verify.py"),
    ("verify.py",  # the degree filter looks at divisors of degree g - 1
     "level_sum = p * (n - 1) - spec.genus()", "level_sum = p * (n - 1) - spec.genus() + 1",
     "tests/test_verify.py"),
]

# (file, exact old text, new text, why no test catches it); the old text is
# checked, and the mutant is not run
KNOWN_SURVIVORS = [
    ("curve.py",
     "powers = [(p + 1) ** k for k in range(n - 1)]", "powers = [p ** k for k in range(n - 1)]",
     "with base p a digit that reaches p could carry into a false match; no curve found "
     "does so (no count changes on curve_battery(11, 7)), but base p+1 makes the packed "
     "test exact by construction"),
]


def occurrences(file: str, old: str) -> int:
    return (ROOT / "src" / "thomae" / file).read_text().count(old)


def survives(file: str, old: str, new: str, tests: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        junk = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", copy / "src", ignore=junk)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=junk)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "thomae" / file
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    return run.returncode != 1


def main() -> int:
    misplaced = [(file, old) for file, old, *_ in CAUGHT + KNOWN_SURVIVORS
                 if occurrences(file, old) != 1]
    for file, old in misplaced:
        print(f"{file}: old text occurs {occurrences(file, old)} times: {old!r}")
    if misplaced:
        return 1
    survivors = 0
    for file, old, new, tests in CAUGHT:
        start = time.perf_counter()
        alive = survives(file, old, new, tests)
        survivors += alive
        verdict = "SURVIVED" if alive else "caught"
        print(f"{verdict:8} {time.perf_counter() - start:5.1f}s  {file}: {old.strip()!r} -> "
              f"{new.strip()!r} ({tests})", flush=True)
    for file, old, new, why in KNOWN_SURVIVORS:
        print(f"known survivor  {file}: {old.strip()!r} -> {new.strip()!r}: {why}")
    print(f"{len(CAUGHT) - survivors} of {len(CAUGHT)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
