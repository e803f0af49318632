"""Per-layer tracing installed from outside the library.

The tracer replaces public functions and methods of the ``hyperclifford``
modules with timing wrappers, runs the workload, and puts the originals
back.  It keeps one aggregate per boundary (calls, failures, self time
and a few computed work counts) and a stack of child-time accumulators,
so a run costs memory per boundary, not per call.

Self time of a boundary is its wall time minus the time spent in nested
boundaries.  Because every wrapper hands its total to its parent, the
self times of all boundaries add up to the time spent inside top-level
boundaries (:meth:`Tracer.inside_s`).
"""

from __future__ import annotations

import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "failed", "counts")

    def __init__(self, counts=()):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.counts = dict.fromkeys(counts, 0)


def _matmul_products(stat: Stat, args):
    """Count the entry products ``HMatrix.__matmul__`` performs: it skips a
    term when either factor is zero, so nonzeros of column k of the left
    factor times nonzeros of row k of the right one, summed over k."""
    a, b = args[0], args[1]
    n = len(a.rows)
    left = [0] * n
    for row in a.rows:
        for k, z in enumerate(row):
            if not z.is_zero:
                left[k] += 1
    products = 0
    for k, row in enumerate(b.rows):
        products += left[k] * sum(1 for z in row if not z.is_zero)
    stat.counts["entry_products"] += products
    stat.counts["dense_products"] += n * n * n


def _blade_pairs(stat: Stat, args):
    stat.counts["blade_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


class Tracer:
    """Timing wrappers for the library's public boundaries.

    Use as a context manager around the traced section; the wrappers
    are installed on entry and removed on exit, also on error.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]
        self._patches = []
        self.bookkeeping = self._stat("trace.bookkeeping")

    def _stat(self, name: str, *counts: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(counts)
        return self.stats[name]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, pick, count=None):
        """Time ``fn``; ``pick(args)`` chooses the boundary's Stat and
        ``count(stat, args)`` adds computed work counts.  The counting
        time is charged to ``trace.bookkeeping``, not to the caller."""
        stack, clock, book = self._stack, perf_counter, self.bookkeeping

        def wrapper(*args, **kwargs):
            stat = pick(args)
            if count is not None:
                tb = clock()
                count(stat, args)
                db = clock() - tb
                stack[-1] += db
                book.self_s += db
                book.calls += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.self_s += dt - child

        wrapper.__wrapped__ = fn
        return wrapper

    def _fixed(self, name: str, *counts: str):
        stat = self._stat(name, *counts)
        return lambda args: stat

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _method(self, cls, attr: str, pick, count=None):
        fn = cls.__dict__[attr]
        wrapped = self._wrap(fn, pick, count)
        self._patch(cls, attr, wrapped)
        return wrapped

    def _function(self, fn, name: str):
        """Wrap a module-level function in every namespace of the package
        that refers to it (``from .x import f`` makes copies)."""
        wrapped = self._wrap(fn, self._fixed(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperclifford" or mod_name.startswith("hyperclifford.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapped)

    # -- installation ------------------------------------------------------

    def install(self):
        from hyperclifford import algebra, checks, cli, matrices, paravectors, physics, rotors, scalars

        H = scalars.HScalar
        exact_mul, float_mul = self._stat("scalars.mul_exact"), self._stat("scalars.mul_float")
        mul = self._method(
            H, "__mul__", lambda args: float_mul if args[0].x.__class__ is float else exact_mul
        )
        self._patch(H, "__rmul__", mul)
        add = self._method(H, "__add__", self._fixed("scalars.add"))
        self._patch(H, "__radd__", add)
        self._method(H, "invert", self._fixed("scalars.invert"))
        self._method(H, "exp", self._fixed("scalars.exp"))

        M = matrices.HMatrix
        self._method(
            M, "__matmul__", self._fixed("matrices.matmul", "entry_products", "dense_products"),
            _matmul_products,
        )
        self._method(M, "inverse", self._fixed("matrices.inverse"))
        pairing = M.__dict__["real_pairing"].__func__
        self._patch(M, "real_pairing", staticmethod(self._wrap(pairing, self._fixed("matrices.real_pairing"))))

        MV, Rep = algebra.Multivector, algebra.AlgebraRep
        self._method(MV, "gp", self._fixed("algebra.gp"))
        self._method(MV, "gp_blades", self._fixed("algebra.gp_blades", "blade_pairs"), _blade_pairs)
        self._method(MV, "involution", self._fixed("algebra.involution"))
        self._method(MV, "to_matrix", self._fixed("algebra.to_matrix"))
        self._method(Rep, "decompose", self._fixed("algebra.decompose"))
        self._function(algebra.blade_mul, "algebra.blade_mul")
        self._function(algebra.enumerate_algebra, "algebra.enumerate")
        self._function(algebra.get_rep, "algebra.get_rep")

        Space = paravectors.ParavectorSpace
        self._method(paravectors.Paravector, "qform", self._fixed("paravectors.qform"))
        self._method(Space, "project_matrix", self._fixed("paravectors.project_matrix"))
        self._method(Space, "to_multivector", self._fixed("paravectors.to_multivector"))
        for fn in (paravectors.wedge2, paravectors.wedge3, paravectors.wedge4):
            self._function(fn, "paravectors.wedge")
        self._function(paravectors.get_space, "paravectors.get_space")

        self._function(rotors.mat_exp, "rotors.mat_exp")
        self._function(rotors.rotor_from_params, "rotors.rotor_from_params")
        self._function(rotors.rotor_from_matrix, "rotors.certify")
        self._function(rotors.act, "rotors.act")
        for fn in (rotors.sphere_point_via_rotors, rotors.quasi_sphere_point_r66_via_rotors):
            self._function(fn, "rotors.sphere_via_rotors")
        for fn in (rotors.verify_index_commutators, rotors.verify_lorentz_commutators,
                   rotors.verify_null_split, rotors.null_split):
            self._function(fn, "rotors.commutator_sets")

        for name in physics.__all__:
            obj = getattr(physics, name)
            if callable(obj) and not isinstance(obj, type):
                self._function(obj, "physics")

        self._function(checks.run_suite, "checks.run_suite")
        self._function(cli.main, "cli.main")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def self_sum_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def inside_s(self) -> float:
        """Total time spent inside top-level boundaries."""
        return self._stack[0]

    def balanced(self) -> bool:
        return len(self._stack) == 1
