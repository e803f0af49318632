"""List the functions of hyperclifford that the verifier and the calculator
never enter, or the lines they never execute, or count where the numbers
they check come from.

    python tools/reach.py [--lines | --entering] [ROOT]

In one process it imports the library from ``ROOT/src`` and the calculator
stream from ``ROOT/perfbench`` (read only, no bytecode written; ``ROOT``
defaults to the checkout holding this script), then runs
``checks.run_all()`` and the 3,000 seed-7 calc-stream requests
(``make_requests(7, 15)`` sent through ``call_cli``) under a
``sys.settrace`` hook that records each call event.  The import itself is
traced too, so a function that runs only when a module loads counts as
entered.  It prints each named function or method defined under
``ROOT/src/hyperclifford`` that no call entered, as ``module:line
qualname`` in module and line order, then how many of how many.  Lambdas,
comprehensions and class bodies are not listed.

With ``--lines`` the hook also records each line event in the package's
modules, and it prints, for each module, how many of its lines that hold
code never ran, of how many, and those lines as ranges (``12-15`` spans
lines 12 to 15 when no line between them that holds code ran), then the
totals.  Line tracing makes the run several times slower.

With ``--entering`` nothing is traced.  The rule ``scalars._entering`` is
wrapped in every module of the package that holds it, and each call is
climbed past the checked entries in ``CHECKED`` to its origin, the first
frame that is not one of them.  An origin in the verifier's checks, the
calculator or outside the package is the boundary, where numbers come
from outside; any other origin in the package is library code that
checks numbers it made itself.  For ``checks.run_all()`` and for the
seed-7 calc stream apart, each from cold caches as in a fresh process (so
the set-up tables built on first use are counted in each), it prints the
count of each origin, library first, then the totals.
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

# The checked entries, by module and qualified name: each hands the numbers
# its caller gave on to the rule, so a call of the rule is counted where the
# first frame outside them is.  They are the public constructors, the
# sphere functions, trig_tilde and to_null_coords, the physics functions
# and the pass-throughs embed_momentum and MomentumHM4.rest, with the
# helpers that take numbers for them.  RotorParams and MomentumHM4 check
# in __new__, which their _make (and so _replace) calls too.
CHECKED = frozenset(
    (f"hyperclifford.{module}", name)
    for module, names in {
        "scalars": ("_entering", "_floats", "HScalar.exact", "HScalar.flt", "HScalar.make", "trig_tilde",
                    "to_null_coords"),
        "matrices": ("HMatrix.__init__", "HMatrix.from_real_coords", "HMatrix.scale"),
        "algebra": ("Multivector.__init__", "Multivector.scale", "AlgebraRep.scalar", "AlgebraRep.blade",
                    "AlgebraRep._times"),
        "paravectors": ("Paravector.__init__", "ParavectorSpace.paravector", "_sphere_entering",
                        "quasi_sphere_residual", "embed_momentum"),
        "rotors": ("RotorParams.__new__", "RotorParams._make", "RotorParams.h1", "RotorParams.m4",
                   "RotorParams.e6", "RotorParams.r66", "_antisym_normalize", "sphere_point",
                   "sphere_point_via_rotors", "quasi_sphere_point_r66", "quasi_sphere_point_r66_via_rotors"),
        "physics": ("_probabilities", "interfere", "linearize", "reconstruct_probability", "MomentumHM4.__new__",
                    "MomentumHM4._make", "MomentumHM4.rest"),
    }.items()
    for name in names
)
# modules of the package whose numbers come from outside: the verifier's
# checks and the calculator
BOUNDARY = frozenset(("hyperclifford.checks", "hyperclifford.cli"))


def modules(package: Path) -> list:
    """``(dotted name, code objects)`` of each module under ``package``, in
    path order: the module's own code object and every one nested in it."""
    out = []
    for path in sorted(package.rglob("*.py")):
        codes = [compile(path.read_text(), str(path), "exec")]
        for code in codes:
            codes += [const for const in code.co_consts if inspect.iscode(const)]
        out.append((".".join(path.relative_to(package.parent).with_suffix("").parts), codes))
    return out


def functions(package: Path) -> dict:
    """Every named function under ``package``, keyed by the
    ``(filename, first line, name)`` of its code object, with its
    ``module:line qualname`` as the value."""
    out = {}
    for module, codes in modules(package):
        named = [code for code in codes if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")]
        for code in sorted(named, key=lambda code: code.co_firstlineno):
            out[code.co_filename, code.co_firstlineno, code.co_name] = f"{module}:{code.co_firstlineno} {code.co_qualname}"
    return out


def code_lines(package: Path) -> dict:
    """The lines that hold code of each module under ``package``, sorted, by
    filename, with the module's dotted name: ``{filename: (module, lines)}``."""
    out = {}
    for module, codes in modules(package):
        # None marks bytecode of no line, and 0 the start of a module's own code
        lines = {line for code in codes for _, _, line in code.co_lines() if line}
        out[codes[0].co_filename] = module, sorted(lines)
    return out


def ranges(lines: list, missing: set) -> list[str]:
    """The ``missing`` members of the sorted ``lines`` as ranges: a range
    runs on while the next of ``lines`` is missing too."""
    out, start, end = [], None, None
    for line in lines + [None]:
        if line in missing:
            start, end = start or line, line
        elif start is not None:
            out.append(str(start) if start == end else f"{start}-{end}")
            start = None
    return out


def entered(run, files=frozenset()) -> set:
    """The ``(filename, first line, name)`` of every code object that a call
    entered while ``run()`` ran, and the ``(filename, line)`` of every line
    that ran in a code object of ``files``, its first line included; the
    tracer that was set before is set again."""
    seen, previous = set(), sys.gettrace()

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def hook(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))
        if code.co_filename in files:
            seen.add((code.co_filename, code.co_firstlineno))
            return line
        return None

    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def origin(frame) -> tuple[str, str]:
    """``(kind, "module qualname")`` of the first frame from ``frame`` out
    that is not a checked entry; kind is ``library`` for the package's own
    code and ``boundary`` for the rest (none at all included)."""
    while frame is not None:
        key = (frame.f_globals.get("__name__"), frame.f_code.co_qualname)
        if key not in CHECKED:
            inside = key[0].startswith("hyperclifford.") and key[0] not in BOUNDARY
            return ("library" if inside else "boundary"), " ".join(key)
        frame = frame.f_back
    return "boundary", "(no caller)"


def census(run) -> Counter:
    """The ``(kind, origin)`` of each call of ``scalars._entering`` while
    ``run()`` runs, counted by :func:`origin` from the rule's caller.  The
    rule is wrapped in every loaded module of the package that holds it,
    and put back after."""
    rule = sys.modules["hyperclifford.scalars"]._entering
    holders = [m for name, m in list(sys.modules.items())
               if name.startswith("hyperclifford.") and getattr(m, "_entering", None) is rule]
    counts = Counter()

    def counted(coords, what):
        counts[origin(sys._getframe(1))] += 1
        return rule(coords, what)

    for module in holders:
        module._entering = counted
    try:
        run()
    finally:
        for module in holders:
            module._entering = rule
    return counts


def clear_caches():
    """Empty every cache of a function of the loaded package, as a fresh
    process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hyperclifford."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def stages(root: Path) -> list:
    """Import the library and the calculator stream from ``root``; the
    ``(name, run)`` of each part of the exercise: every check, then the
    seed-7 calc requests."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from hyperclifford import checks
    from workloads import call_cli, make_requests

    def calc():
        for request in make_requests(7, 15):
            call_cli(request.argv)

    return [("checks.run_all()", checks.run_all), ("seed-7 calc stream", calc)]


def exercise(root: Path):
    """Import the library and the calculator stream from ``root``, then run
    every check and the seed-7 calc requests."""
    for _, run in stages(root):
        run()


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    by_line, by_origin = "--lines" in args, "--entering" in args
    args = [arg for arg in args if arg not in ("--lines", "--entering")]
    if len(args) > 1 or by_line and by_origin:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    package = root / "src" / "hyperclifford"
    if by_origin:
        for name, run in stages(root):
            clear_caches()
            counts = census(run)
            for (kind, where), n in sorted(counts.items(), key=lambda item: (item[0][0] != "library", -item[1])):
                print(f"{kind:8} {n:6} {where}")
            made = sum(n for (kind, _), n in counts.items() if kind == "library")
            total = sum(counts.values())
            print(f"{name}: {total} calls of _entering, {total - made} at the boundary, {made} library-made")
        return 0
    if by_line:
        coded = code_lines(package)
        seen = entered(lambda: exercise(root), frozenset(coded))
        total = never = 0
        for filename, (module, lines) in coded.items():
            missing = {line for line in lines if (filename, line) not in seen}
            total, never = total + len(lines), never + len(missing)
            print(f"{module}: {len(missing)} of {len(lines)}", *ranges(lines, missing))
        print(f"{never} of {total} lines that hold code never executed")
        return 0
    defined = functions(package)
    seen = entered(lambda: exercise(root))
    missing = [name for key, name in defined.items() if key not in seen]
    for name in missing:
        print(name)
    print(f"{len(missing)} of {len(defined)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
