"""List the functions of hyperclifford that the verifier and the calculator
never enter, or the lines they never execute.

    python tools/reach.py [--lines] [ROOT]

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
"""

import inspect
import sys
from pathlib import Path


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


def exercise(root: Path):
    """Import the library and the calculator stream from ``root``, then run
    every check and the seed-7 calc requests."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from hyperclifford import checks
    from workloads import call_cli, make_requests

    checks.run_all()
    for request in make_requests(7, 15):
        call_cli(request.argv)


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    by_line = "--lines" in args
    args = [arg for arg in args if arg != "--lines"]
    if len(args) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    package = root / "src" / "hyperclifford"
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
