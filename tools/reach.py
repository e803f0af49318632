"""List the functions of hyperclifford that the verifier and the calculator
never enter.

    python tools/reach.py [ROOT]

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
"""

import inspect
import sys
from pathlib import Path


def functions(package: Path) -> dict:
    """Every named function under ``package``, keyed by the
    ``(filename, first line, name)`` of its code object, with its
    ``module:line qualname`` as the value."""
    out = {}

    def walk(code, module, found):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                found[const.co_filename, const.co_firstlineno, const.co_name] = \
                    f"{module}:{const.co_firstlineno} {const.co_qualname}"
            walk(const, module, found)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        found = {}
        walk(compile(path.read_text(), str(path), "exec"), module, found)
        out.update(sorted(found.items(), key=lambda item: item[0][1]))
    return out


def entered(run) -> set:
    """The ``(filename, first line, name)`` of every code object that a call
    entered while ``run()`` ran; the tracer that was set before is set again."""
    seen, previous = set(), sys.gettrace()

    def hook(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))

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
    if len(args) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = Path(args[0] if args else Path(__file__).parent.parent).resolve()
    defined = functions(root / "src" / "hyperclifford")
    seen = entered(lambda: exercise(root))
    missing = [name for key, name in defined.items() if key not in seen]
    for name in missing:
        print(name)
    print(f"{len(missing)} of {len(defined)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
