"""In-process span tracer for the twistalex modules.

The tracer replaces functions in the package's module and class namespaces
with timing wrappers and puts the originals back on exit.  A name bound in
several modules (``from .polymat import max_minor_gcd`` in ``twistedalex``,
``ExactMatrix.__rmul__ = __mul__``) is found by identity and replaced
everywhere, otherwise calls through the other binding would be missed.

Each span adds its inclusive time to its name (outermost activation only,
so recursion is not counted twice), its self time (duration minus the time
of its child spans) and one call.  Span records are aggregated as they
close; nothing is kept per call.  The time of the hooks that derive
counters from arguments and results goes to ``hook_ns``, not to any span's
self time, so the self times of all spans plus ``hook_ns`` add up to the
root span.
"""

import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "twistalex"
MODULES = ("cli", "docio", "normsfibred", "grouppres", "twistedalex",
           "polymat", "laurent", "exactalg", "clifford")


class Tracer:
    def __init__(self):
        self.total_ns = defaultdict(int)   # inclusive, outermost calls only
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.hook_ns = 0
        self._stack = []                   # [name, start_ns, child_ns]
        self._active = defaultdict(int)
        self._patched = []                 # (namespace, attr, original)

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        frame = [name, 0, 0]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child = frame
        dur = end - start
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        self._active[name] -= 1
        if not self._active[name]:
            self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _hook(self, fn, *args):
        start = time.perf_counter_ns()
        fn(self, *args)
        dur = time.perf_counter_ns() - start
        self.hook_ns += dur
        if self._stack:
            self._stack[-1][2] += dur

    def active(self, name):
        return self._active[name] > 0

    def count(self, key, n=1):
        self.counters[key] += n

    def maximum(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, on_call, on_result):
        tracer = self
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                tracer._hook(on_call, args, kwargs)
            frame = tracer._enter(name(args) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                tracer._hook(on_result, args, result)
            return result

        return wrapper

    def install(self, spans):
        """Wrap every binding of each span's target.

        `spans` maps "module:attr" or "module:Class.attr" to a span name (or
        a function of the call arguments giving one), optionally as a tuple
        (name, on_call, on_result).  Returns the targets that do not exist.
        """
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        modules.append(importlib.import_module(PACKAGE))
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(obj for obj in vars(mod).values()
                              if inspect.isclass(obj)
                              and obj.__module__.startswith(PACKAGE))
        missing = []
        for target, spec in spans.items():
            name, on_call, on_result = (spec if isinstance(spec, tuple)
                                        else (spec, None, None))
            modname, _, path = target.partition(":")
            obj = importlib.import_module(f"{PACKAGE}.{modname}")
            try:
                for part in path.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                missing.append(target)
                continue
            wrapper = self._wrap(obj, name, on_call, on_result)
            for ns in dict.fromkeys(namespaces):
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        return missing

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
