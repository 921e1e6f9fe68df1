"""Outside-in layer trace for one talbotlau CLI run.

``Tracer.installed()`` replaces the public functions that talbotlau's own
modules look up at call time with timing wrappers, and puts every original
back when the block ends, so untraced runs never pass through a wrapper.
Spans nest through a stack: a span's self time is its duration minus the
durations of the wrapped calls made inside it. A target that no longer
exists, or is never called, reports zero calls.
"""

import contextlib
import functools
import importlib
import math
import time

# (module, attribute the callers look up, span key)
TARGETS = (
    ("talbotlau.cli", "main", "cli"),
    ("talbotlau.cli", "parse_config", "config"),
    ("talbotlau.cli", "build_beamline", "config"),
    ("talbotlau.cli", "scan_fringe", "interferometer"),
    # sweep_energy finds scan_fringe in its own module
    ("talbotlau.interferometer", "scan_fringe", "interferometer"),
    ("talbotlau.cli", "predict_throughput", "sensing"),
    ("talbotlau.interferometer", "propagate", "propagation"),
    ("talbotlau.interferometer", "apply_plane", "elements.apply_plane"),
    # in _fringe_totals, grating_amplitude builds the G3 offset masks only
    ("talbotlau.interferometer", "grating_amplitude", "elements.g3_mask"),
)

# transforms counted, untimed, to size the propagation work
FFT_TARGETS = (("scipy.fft", "fft"), ("scipy.fft", "ifft"))

TRANSFER_CACHE = ("talbotlau.propagation", "_transfer")

COMPLEX_BYTES = 16


class _Span:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and counters for one traced run; create one per run."""

    def __init__(self):
        self.spans = {key: _Span() for _, _, key in TARGETS}
        self._stack = []
        self.sources = 0
        self.grid_points = 0
        self.fft_len = 0
        self.fft_transforms = 0
        self.fft_bytes = 0
        self.fft_flops = 0.0
        self._cache_before = None
        self._cache_after = None

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module_name, attr, key in TARGETS:
                hook = {"propagation": self._on_propagate, "interferometer": self._on_scan}.get(key)
                self._patch(patched, module_name, attr, lambda fn, k=key, h=hook: self._timed(fn, k, h))
            for module_name, attr in FFT_TARGETS:
                self._patch(patched, module_name, attr, self._counted_fft)
            self._cache_before = _cache_info()
            yield self
        finally:
            self._cache_after = _cache_info()
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @staticmethod
    def _patch(patched, module_name, attr, make_wrapper):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        original = getattr(module, attr, None)
        if not callable(original):
            return
        patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _timed(self, fn, key, hook):
        span = self.spans[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                inner = stack.pop()
                span.calls += 1
                span.busy_s += duration
                span.self_s += duration - inner
                if stack:
                    stack[-1] += duration

        return wrapper

    def _counted_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(x, n=None, axis=-1, *args, **kwargs):
            shape = getattr(x, "shape", None)
            if shape:
                m = n if n is not None else shape[axis]
                count = math.prod(shape) // shape[axis] if shape[axis] else 0
                self.fft_len = max(self.fft_len, m)
                self.fft_transforms += count
                # one complex read and one complex write per point
                self.fft_bytes += count * m * 2 * COMPLEX_BYTES
                self.fft_flops += count * 5.0 * m * math.log2(m) if m > 1 else 0.0
            return fn(x, n, axis, *args, **kwargs)

        return wrapper

    def _on_propagate(self, args, kwargs):
        field = args[0] if args else kwargs.get("field")
        amplitudes = getattr(field, "amplitudes", None)
        if amplitudes is not None:
            self.grid_points = max(self.grid_points, amplitudes.shape[-1])

    def _on_scan(self, args, kwargs):
        cfg = args[0] if args else kwargs.get("cfg")
        self.sources += int(getattr(cfg, "n_sources", 0))

    def self_time_sum(self) -> float:
        return sum(span.self_s for span in self.spans.values())

    def metrics(self) -> dict:
        """Per-layer metrics named as in BENCHMARK.json (without ``run.*``)."""
        s = self.spans
        hits, misses = _cache_delta(self._cache_before, self._cache_after)
        lookups = hits + misses
        return {
            "propagation.calls": s["propagation"].calls,
            "propagation.busy_s": s["propagation"].busy_s,
            "propagation.grid_points": self.grid_points,
            "propagation.fft_len": self.fft_len,
            "propagation.fft_transforms": self.fft_transforms,
            "propagation.fft_bytes_computed": self.fft_bytes,
            "propagation.fft_flops_computed": self.fft_flops,
            "propagation.transfer_cache_hits": hits,
            "propagation.transfer_cache_misses": misses,
            "propagation.transfer_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "elements.apply_plane_calls": s["elements.apply_plane"].calls,
            "elements.apply_plane_s": s["elements.apply_plane"].busy_s,
            "elements.g3_mask_calls": s["elements.g3_mask"].calls,
            "elements.g3_mask_s": s["elements.g3_mask"].busy_s,
            "interferometer.scans": s["interferometer"].calls,
            "interferometer.sources": self.sources,
            "interferometer.scan_s": s["interferometer"].busy_s,
            "interferometer.self_s": s["interferometer"].self_s,
            "sensing.calls": s["sensing"].calls,
            "sensing.busy_s": s["sensing"].busy_s,
            "config.busy_s": s["config"].busy_s,
            "cli.self_s": s["cli"].self_s,
        }


def _cache_info():
    try:
        module = importlib.import_module(TRANSFER_CACHE[0])
    except ImportError:
        return None
    info = getattr(getattr(module, TRANSFER_CACHE[1], None), "cache_info", None)
    return info() if callable(info) else None


def _cache_delta(before, after):
    if before is None or after is None:
        return 0, 0
    return after.hits - before.hits, after.misses - before.misses
